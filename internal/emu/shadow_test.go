package emu

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// TestShadowStoreLogMatchesByteMap checks the shadow's store log against
// a byte map, the overlay it replaced: random overlapping 1-, 4- and
// 8-byte stores and loads, inside memory, straddling its end and far
// outside it (wrapping addresses included), must give the same load
// values and the same in-memory verdicts (MemOOB is their negation).
// Reseed must empty the log. ReadWord reads a whole word for any size but
// 4, so a 1-byte load is placed where a word fits or fully outside memory.
func TestShadowStoreLogMatchesByteMap(t *testing.T) {
	sizes := []int{1, 4, 8}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &Machine{Mem: make([]byte, 48)}
		rng.Read(m.Mem)
		n := uint64(len(m.Mem))
		var s Shadow
		s.Reseed(m, 0, false, 0)
		ref := map[uint64]byte{}
		addr := func() uint64 {
			switch rng.Intn(10) {
			case 0:
				return ^uint64(0) - uint64(rng.Intn(8)) // wraps
			case 1:
				return n + uint64(rng.Intn(1000))
			}
			return uint64(rng.Intn(int(n) + 4))
		}
		for step := 0; step < 300; step++ {
			a, size := addr(), sizes[rng.Intn(len(sizes))]
			switch r := rng.Intn(10); {
			case r < 4:
				v := rng.Uint64()
				want := isa.WordFits(m.Mem, a, size)
				if want {
					for i := 0; i < size; i++ {
						ref[a+uint64(i)] = byte(v >> (8 * i))
					}
				}
				if got := s.store(a, size, v); got != want {
					t.Fatalf("seed %d step %d: store(%#x, %d) in memory = %v, want %v", seed, step, a, size, got, want)
				}
			case r < 9:
				if size == 1 && a < n && a+8 > n {
					a = n - 8
				}
				want, wantOK := isa.ReadWord(m.Mem, a, size)
				if wantOK {
					for i := 0; i < size; i++ {
						if b, ok := ref[a+uint64(i)]; ok {
							shift := uint(8 * i)
							want = want&^(0xff<<shift) | uint64(b)<<shift
						}
					}
				}
				got, ok := s.load(a, size)
				if got != want || ok != wantOK {
					t.Fatalf("seed %d step %d: load(%#x, %d) = %#x, %v; byte map gives %#x, %v",
						seed, step, a, size, got, ok, want, wantOK)
				}
			default:
				s.Reseed(m, 0, false, 0)
				clear(ref)
				if len(s.stores) != 0 {
					t.Fatalf("seed %d step %d: Reseed kept %d stores", seed, step, len(s.stores))
				}
			}
		}
	}
}
