package trace

import (
	"context"
	"testing"

	"repro/internal/emu"
)

// BenchmarkReplayStep measures one replayed correct-path record of the
// sliced test loop. The replay restarts over a reused memory image
// whenever the stream ends.
func BenchmarkReplayStep(b *testing.B) {
	prog, img := buildSliced(4096, 3)
	tr, err := Capture(context.Background(), prog, append([]byte(nil), img...))
	if err != nil {
		b.Fatal(err)
	}
	mem := make([]byte, len(img))
	var r *Replay
	var d emu.DynInst
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r == nil || r.Halted() {
			copy(mem, img)
			if r, err = NewReplay(tr, prog, mem); err != nil {
				b.Fatal(err)
			}
		}
		if err := r.StepInto(&d); err != nil {
			b.Fatal(err)
		}
	}
}
