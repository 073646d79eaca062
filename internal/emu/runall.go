package emu

import (
	"fmt"

	"repro/internal/isa"
)

// RunAll executes a set of machines (sharing one memory image) purely
// functionally, honoring barriers: each machine runs until its next
// Barrier or Halt; when all have arrived, the barrier opens and the next
// phase starts. It is the fast validation path for multi-threaded
// workloads (no timing), and the reference the pipeline's commit count is
// checked against. It returns the number of instructions a pipeline
// commits for this run: every executed instruction except slice markers
// and nops, which the core discards at dispatch. maxInsts (0 = no limit)
// bounds every executed instruction.
func RunAll(machines []*Machine, maxInsts uint64) (uint64, error) {
	var commits, total uint64
	for {
		alive := false
		for _, m := range machines {
			if m.Halted {
				continue
			}
			alive = true
			for !m.Halted {
				d, err := m.Step()
				if err != nil {
					return commits, err
				}
				if total++; maxInsts > 0 && total > maxInsts {
					return commits, fmt.Errorf("emu: RunAll budget %d exhausted", maxInsts)
				}
				op := d.Inst.Op
				if !op.IsSlice() && op != isa.Nop {
					commits++
				}
				if op == isa.Barrier {
					break
				}
			}
		}
		if !alive {
			return commits, nil
		}
	}
}
