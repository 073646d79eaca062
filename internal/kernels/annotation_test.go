package kernels

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/isa"
)

// stripAnnotations returns p's code without slice_start, slice_end,
// slice_fence and the reduce prefix, with every control target remapped
// to the instruction it reached before the markers were removed.
func stripAnnotations(p *isa.Program) []isa.Inst {
	at := make([]int, len(p.Code)+1) // at[pc]: index of pc's first kept successor
	for pc, in := range p.Code {
		at[pc+1] = at[pc]
		if !in.Op.IsSlice() {
			at[pc+1]++
		}
	}
	var code []isa.Inst
	for _, in := range p.Code {
		if in.Op.IsSlice() {
			continue
		}
		if in.Op.IsControl() {
			in.Imm = int64(at[in.Imm])
		}
		in.Flags &^= isa.FlagReduce
		code = append(code, in)
	}
	return code
}

// TestAnnotationOnly checks that each sliced kernel is its unsliced
// program plus annotations, as the paper's GAP builds are: with the
// markers and the reduce prefix stripped, every thread's program must
// equal the SliceNone build's. cc inner is the one known exception (it
// re-reads its label and does an atomic min per edge); the test pins
// that it still differs, so porting cc to one program must delete the
// exception here.
func TestAnnotationOnly(t *testing.T) {
	for _, k := range Names {
		modes := []SliceMode{SliceOuter}
		if InnerSliceable(k) {
			modes = append(modes, SliceInner)
		}
		for _, mode := range modes {
			for _, threads := range []int{1, 2} {
				name := fmt.Sprintf("%s/%v/t%d", k, mode, threads)
				t.Run(name, func(t *testing.T) {
					spec := Spec{Kernel: k, Scale: 6, Threads: threads}
					base, err := Build(spec)
					if err != nil {
						t.Fatal(err)
					}
					spec.Mode = mode
					sliced, err := Build(spec)
					if err != nil {
						t.Fatal(err)
					}
					if len(sliced.Progs) != len(base.Progs) {
						t.Fatalf("%d programs, baseline has %d", len(sliced.Progs), len(base.Progs))
					}
					differs := false
					for i, p := range sliced.Progs {
						got, want := stripAnnotations(p), base.Progs[i].Code
						if !slices.Equal(got, want) {
							differs = true
							if k != "cc" || mode != SliceInner {
								t.Errorf("thread %d: stripped program has %d instructions, baseline %d, and they differ",
									i, len(got), len(want))
							}
						}
					}
					if k == "cc" && mode == SliceInner && !differs {
						t.Error("cc inner now strips to its baseline: delete its exception from this test")
					}
				})
			}
		}
	}
}
