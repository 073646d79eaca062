package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func newTestCache(sizeKB, ways int, next Level) *Cache {
	return New(Config{
		Name: "t", SizeBytes: sizeKB << 10, Ways: ways, HitLatency: 4,
	}, next)
}

func TestHitMiss(t *testing.T) {
	mem := NewMemory(100, 64)
	c := newTestCache(4, 4, mem)

	// Cold miss goes to memory.
	done := c.Access(0x1000, 0, false, false)
	if done < 100 {
		t.Fatalf("cold miss done at %d, want >= 100", done)
	}
	if !c.Contains(0x1000) {
		t.Fatal("line not installed")
	}
	// Hit after the fill completes.
	hit := c.Access(0x1000, done, false, false)
	if hit != done+4 {
		t.Fatalf("hit latency = %d, want %d", hit-done, 4)
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInFlightFill(t *testing.T) {
	mem := NewMemory(100, 64)
	c := newTestCache(4, 4, mem)
	done := c.Access(0x2000, 0, false, false)
	// A second access during the fill waits for it, not a fresh miss.
	second := c.Access(0x2000, 10, false, false)
	if second < done || second > done+8 {
		t.Fatalf("in-flight access done at %d vs fill %d", second, done)
	}
	if c.Stats().Misses != 1 {
		t.Fatal("in-flight access counted as a miss")
	}
}

func TestLRUEviction(t *testing.T) {
	mem := NewMemory(10, 64)
	// 2 sets x 2 ways of 64B lines = 256 B.
	c := New(Config{Name: "t", SizeBytes: 256, Ways: 2, HitLatency: 1}, mem)
	// Three lines mapping to set 0 (stride = 2 lines).
	a, b, d := uint64(0), uint64(128), uint64(256)
	c.Access(a, 0, false, false)
	c.Access(b, 100, false, false)
	c.Access(a, 200, false, false) // refresh a
	c.Access(d, 300, false, false) // evicts b (LRU)
	if !c.Contains(a) || !c.Contains(d) {
		t.Fatal("wrong victim")
	}
	if c.Contains(b) {
		t.Fatal("LRU line not evicted")
	}
}

func TestWritebackDirty(t *testing.T) {
	mem := NewMemory(10, 64)
	c := New(Config{Name: "t", SizeBytes: 128, Ways: 1, HitLatency: 1}, mem)
	c.Access(0, 0, true, false)      // dirty line in set 0
	c.Access(128, 100, false, false) // evicts it -> writeback
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestMSHRLimit(t *testing.T) {
	mem := NewMemory(100, 6400)
	c := New(Config{Name: "t", SizeBytes: 4 << 10, Ways: 4, HitLatency: 1, MSHRs: 2}, mem)
	// Three concurrent misses with only 2 MSHRs: the third must wait for
	// the first fill.
	d1 := c.Access(0x0000, 0, false, false)
	d2 := c.Access(0x1000, 0, false, false)
	d3 := c.Access(0x2000, 0, false, false)
	if d1 > 110 || d2 > 110 {
		t.Fatalf("first two misses delayed: %d %d", d1, d2)
	}
	if d3 < 195 {
		t.Fatalf("third miss done at %d, want MSHR-delayed (>= 195)", d3)
	}
}

func TestNextLinePrefetch(t *testing.T) {
	mem := NewMemory(50, 64)
	c := New(Config{Name: "t", SizeBytes: 4 << 10, Ways: 4, HitLatency: 1,
		NextLinePrefetch: true}, mem)
	c.Access(0x100, 0, false, false)
	if !c.Contains(0x140) {
		t.Fatal("next line not prefetched")
	}
	if c.Stats().Prefetches == 0 {
		t.Fatal("prefetch not counted")
	}
}

func TestStridePrefetch(t *testing.T) {
	mem := NewMemory(50, 64)
	c := New(Config{Name: "t", SizeBytes: 8 << 10, Ways: 4, HitLatency: 1,
		StridePrefetch: true}, mem)
	// Train a 128-byte stride at one PC.
	pc := uint64(42)
	for i := 0; i < 4; i++ {
		c.AccessPC(uint64(i)*128, pc, int64(i)*200, false)
	}
	// After confidence builds, lines ahead should be resident.
	if !c.Contains(4*128) && !c.Contains(5*128) {
		t.Fatal("stride prefetcher did not run ahead")
	}
}

func TestMemoryBandwidth(t *testing.T) {
	// 64-byte lines at 4 bytes/cycle: 16 cycles per transfer.
	mem := NewMemory(100, 4)
	d1 := mem.Access(0, 0, false, false)
	d2 := mem.Access(64, 0, false, false)
	if d1 != 100 {
		t.Fatalf("first access at %d", d1)
	}
	if d2 != 116 {
		t.Fatalf("second access at %d, want bandwidth-delayed 116", d2)
	}
	if mem.Accesses() != 2 {
		t.Fatal("access count")
	}
}

// TestMonotonicCompletion: completion times never precede request times,
// regardless of the access pattern.
func TestMonotonicCompletion(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		mem := NewMemory(100, 8)
		l2 := New(Config{Name: "l2", SizeBytes: 2 << 10, Ways: 4, HitLatency: 10}, mem)
		l1 := New(Config{Name: "l1", SizeBytes: 512, Ways: 2, HitLatency: 2, MSHRs: 4}, l2)
		now := int64(0)
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			done := l1.Access(uint64(a), now, w, false)
			if done < now+2 {
				return false
			}
			now += 3
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchy(t *testing.T) {
	mem := NewMemory(100, 64)
	llc := New(Config{Name: "llc", SizeBytes: 16 << 10, Ways: 8, HitLatency: 30}, mem)
	h := NewHierarchy(HierConfig{
		L1I: Config{Name: "l1i", SizeBytes: 4 << 10, Ways: 4, HitLatency: 1},
		L1D: Config{Name: "l1d", SizeBytes: 4 << 10, Ways: 4, HitLatency: 4},
		L2:  Config{Name: "l2", SizeBytes: 8 << 10, Ways: 8, HitLatency: 12},
	}, llc, mem)

	// Data and instruction streams must not alias.
	h.Data(0x100, 1, 0, false)
	d := h.Inst(0x100/4, 0)
	if d <= 1 {
		t.Fatal("instruction fetch suspiciously instant")
	}
	// Second access to each is a hit.
	if hit := h.Data(0x100, 1, 1000, false); hit != 1004 {
		t.Fatalf("L1D hit latency %d", hit-1000)
	}
}

// TestMSHRHeapMatchesScan pins the min-heap MSHR model to the original
// linear-scan semantics: drop entries completed by now, and when all MSHRs
// are still busy, the new miss inherits the earliest completion time.
func TestMSHRHeapMatchesScan(t *testing.T) {
	f := func(times []int64, mshrs uint8) bool {
		n := int(mshrs%8) + 1
		c := &Cache{cfg: Config{MSHRs: n}}
		var ref []int64 // the pre-heap representation
		now := int64(0)
		for _, dt := range times {
			if dt < 0 {
				dt = -dt
			}
			now += dt % 50
			// Reference: filter expired, then take the earliest if full.
			live := ref[:0]
			for _, at := range ref {
				if at > now {
					live = append(live, at)
				}
			}
			ref = live
			want := now
			if len(ref) >= n {
				ei := 0
				for i, at := range ref {
					if at < ref[ei] {
						ei = i
					}
				}
				want = ref[ei]
				ref = append(ref[:ei], ref[ei+1:]...)
			}
			got := c.mshrDelay(now)
			if got != want {
				t.Logf("mshrDelay(%d) = %d, want %d", now, got, want)
				return false
			}
			done := want + 100 + dt%97
			c.trackMiss(done)
			ref = append(ref, done)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMSHRFull drives a stream of misses through a cache whose MSHRs
// are permanently saturated (tiny cache, huge stride, fills slower than the
// request rate), the path where occupancy tracking cost is hottest.
func BenchmarkMSHRFull(b *testing.B) {
	mem := NewMemory(400, 64)
	c := New(Config{Name: "b", SizeBytes: 4 << 10, Ways: 4, HitLatency: 4, MSHRs: 32}, mem)
	b.ReportAllocs()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		// Distinct sets, never reused: every access is a demand miss.
		addr := uint64(i) * 4096
		c.Access(addr, now, false, false)
		now += 2 // misses arrive far faster than the 400-cycle fills
	}
}

// BenchmarkCacheHit measures the hit path for contrast.
func BenchmarkCacheHit(b *testing.B) {
	mem := NewMemory(100, 64)
	c := newTestCache(4, 4, mem)
	c.Access(0x1000, 0, false, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000, int64(i)+1000, false, false)
	}
}

// TestExactSetCount: New builds exactly SizeBytes / (line × ways) sets,
// power of two or not. A 48 KiB, 8-way cache has 96 sets, so it holds 768
// distinct lines: after one pass over them, a second pass misses nothing.
func TestExactSetCount(t *testing.T) {
	c := New(Config{Name: "llc", SizeBytes: 48 << 10, Ways: 8, HitLatency: 1}, NewMemory(10, 64))
	const lines = 768
	now := int64(0)
	for pass := 0; pass < 2; pass++ {
		for i := uint64(0); i < lines; i++ {
			now = c.Access(i*lineBytes, now, false, false)
		}
	}
	if s := c.Stats(); s.Accesses != 2*lines || s.Misses != lines {
		t.Fatalf("%d accesses, %d misses; want %d and %d (the second pass all hits)",
			s.Accesses, s.Misses, 2*lines, lines)
	}
}

// levelAccess is one access a recordLevel saw.
type levelAccess struct {
	addr            uint64
	now             int64
	write, prefetch bool
}

// recordLevel is a fixed-latency next level that logs every access.
type recordLevel struct{ log []levelAccess }

func (r *recordLevel) Access(addr uint64, now int64, write, prefetch bool) int64 {
	r.log = append(r.log, levelAccess{addr, now, write, prefetch})
	return now + 50
}

// mapStride is the stride prefetcher keyed by a PC map, as AccessPC kept
// it before the table: the reference the table is checked against. It
// trains over a cache built without a stride prefetcher of its own.
type mapStride struct {
	c      *Cache
	stride map[uint64]*mapStrideEntry
}

type mapStrideEntry struct {
	lastAddr uint64
	stride   int64
	conf     int8
}

func (m *mapStride) AccessPC(addr uint64, pc uint64, now int64, write bool) int64 {
	done := m.c.Access(addr, now, write, false)
	e := m.stride[pc]
	if e == nil {
		if len(m.stride) > 1024 {
			clear(m.stride)
		}
		m.stride[pc] = &mapStrideEntry{lastAddr: addr}
		return done
	}
	d := int64(addr) - int64(e.lastAddr)
	if d == e.stride && d != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = d
		if e.conf > 0 {
			e.conf--
		}
	}
	e.lastAddr = addr
	if e.conf >= 2 && e.stride != 0 {
		for k := 1; k <= strideDegree; k++ {
			pa := uint64(int64(addr) + e.stride*int64(k+1))
			m.c.Access(pa, now, false, true)
		}
	}
	return done
}

// TestStrideTableMatchesMap runs random (pc, addr) streams through the
// stride table and through the map it replaced, each over a small cache,
// and requires the same completion times, the same accesses reaching the
// next level (prefetches included) and the same Stats. A few hot PCs walk
// fixed strides so the prefetcher trains; cold PCs drawn from a wide range
// push the table past strideCap, so it is cleared more than once.
func TestStrideTableMatchesMap(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 1 << 10, Ways: 2, HitLatency: 2, MSHRs: 4}
	strides := []int64{0, 8, 64, 128, -64, 192}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tableNext, mapNext := &recordLevel{}, &recordLevel{}
		tcfg := cfg
		tcfg.StridePrefetch = true
		table := New(tcfg, tableNext)
		ref := &mapStride{c: New(cfg, mapNext), stride: map[uint64]*mapStrideEntry{}}
		last := map[uint64]uint64{}
		distinct := 0
		for i := 0; i < 20000; i++ {
			pc := uint64(rng.Intn(8))
			if rng.Intn(4) == 0 {
				pc = uint64(rng.Intn(3000))
			}
			addr, seen := last[pc]
			switch {
			case !seen:
				distinct++
				addr = uint64(rng.Intn(1 << 20))
			case rng.Intn(10) == 0:
				addr = uint64(rng.Intn(1 << 20))
			default:
				addr = uint64(int64(addr) + strides[pc%uint64(len(strides))])
			}
			last[pc] = addr
			now, write := int64(i)*3, rng.Intn(5) == 0
			if got, want := table.AccessPC(addr, pc, now, write), ref.AccessPC(addr, pc, now, write); got != want {
				t.Fatalf("seed %d access %d (pc %d): done at %d, map version %d", seed, i, pc, got, want)
			}
		}
		if distinct <= 2*strideCap {
			t.Fatalf("seed %d: only %d distinct PCs, the table was not cleared twice", seed, distinct)
		}
		if !slices.Equal(tableNext.log, mapNext.log) {
			t.Fatalf("seed %d: next level saw different accesses (%d vs %d)", seed, len(tableNext.log), len(mapNext.log))
		}
		if table.Stats() != ref.c.Stats() {
			t.Fatalf("seed %d: stats %+v, map version %+v", seed, table.Stats(), ref.c.Stats())
		}
		if table.Stats().Prefetches == 0 {
			t.Fatalf("seed %d: the prefetcher never ran", seed)
		}
	}
}
