// Package autoslice implements the paper's future-work direction
// (§7: "automatic insertion of slice instructions by the compiler"): a
// conservative static pass that finds parallel-loop bodies in an
// unannotated virtual-ISA program and inserts slice_start / slice_end /
// slice_fence around them.
//
// The analysis mirrors what an OpenMP-aware compiler knows statically:
//
//   - natural loops are found via back edges;
//   - the loop's induction "glue" (the iterator update feeding the
//     back-edge branch) is peeled off the candidate slice, exactly as the
//     paper's Listing 1 leaves instructions 9-10 outside the slice;
//   - register independence (§4.1's contract, footnote 1) is checked
//     conservatively: a register written inside the slice must never be
//     read outside it, and registers read inside the slice must be either
//     slice-local (written first), loop-invariant, or glue-owned;
//   - memory independence cannot be proven by this local pass — like the
//     paper, which relies on the programmer's `parallel for` assertion,
//     the caller is expected to validate candidates dynamically with the
//     emulator's independence checker (emu.Machine.CheckIndependence).
//
// Loops that fail any check are simply left unannotated; the pass never
// changes program semantics (slice instructions are architectural no-ops).
package autoslice

import (
	"fmt"

	"repro/internal/isa"
)

// Loop describes one sliced loop in the rewritten program.
type Loop struct {
	Head       int // first instruction of the loop body (original indices)
	SliceStart int // original index where the slice begins (after exit tests)
	BackEdge   int // the bottom branch/jump returning to Head
	SliceEnd   int // original index where the slice ends (glue starts)
	Exit       int // original index of the first instruction after the loop
}

// Report summarizes what the pass did.
type Report struct {
	Sliced   []Loop
	Rejected []string // human-readable reasons per rejected candidate
}

// Transform returns a copy of p with slice instructions inserted around
// every provably independent innermost loop body, plus a report. The input
// program must not already contain slice instructions.
func Transform(p *isa.Program) (*isa.Program, *Report, error) {
	for pc, in := range p.Code {
		if in.Op.IsSlice() {
			return nil, nil, fmt.Errorf("autoslice: program already annotated at pc %d", pc)
		}
	}
	rep := &Report{}
	loops := findLoops(p)

	// Innermost-only, non-overlapping (slices cannot nest, §4.1).
	loops = dropNested(loops)

	var accepted []Loop
	for _, lp := range loops {
		cand, reason := analyze(p, lp)
		if reason != "" {
			rep.Rejected = append(rep.Rejected,
				fmt.Sprintf("loop @%d..%d: %s", lp.head, lp.back, reason))
			continue
		}
		accepted = append(accepted, cand)
	}
	if len(accepted) == 0 {
		return p, rep, nil
	}
	out := insert(p, accepted)
	rep.Sliced = accepted
	if err := isa.Validate(out); err != nil {
		return nil, nil, fmt.Errorf("autoslice: produced invalid program: %w", err)
	}
	return out, rep, nil
}

type rawLoop struct {
	head, back int
}

// findLoops locates natural loops via back edges (a control transfer to a
// lower-or-equal address).
func findLoops(p *isa.Program) []rawLoop {
	var out []rawLoop
	for pc, in := range p.Code {
		if in.Op.IsControl() && int(in.Imm) <= pc {
			out = append(out, rawLoop{head: int(in.Imm), back: pc})
		}
	}
	return out
}

// dropNested keeps only innermost loops and drops overlapping candidates.
func dropNested(loops []rawLoop) []rawLoop {
	var out []rawLoop
	for i, a := range loops {
		inner := true
		for j, b := range loops {
			if i == j {
				continue
			}
			// b strictly inside a: a is not innermost.
			if b.head >= a.head && b.back <= a.back && (b.head > a.head || b.back < a.back) {
				inner = false
				break
			}
		}
		if inner {
			out = append(out, a)
		}
	}
	// Remove overlapping survivors (identical ranges keep one).
	var flat []rawLoop
	for _, a := range out {
		dup := false
		for _, b := range flat {
			if a.head <= b.back && b.head <= a.back {
				dup = true
				break
			}
		}
		if !dup {
			flat = append(flat, a)
		}
	}
	return flat
}

// analyze decides whether the loop body can be sliced and where the glue
// (induction suffix) begins. It returns a reason string when rejecting.
func analyze(p *isa.Program, lp rawLoop) (Loop, string) {
	body := p.Code[lp.head : lp.back+1]

	// Control containment: every transfer inside the body must target
	// within [head, back+1] (falling out via the back-edge's fall-through
	// is the loop exit).
	for i, in := range body {
		pc := lp.head + i
		if in.Op == isa.Barrier || in.Op == isa.Halt {
			return Loop{}, "body contains barrier/halt"
		}
		if in.Op.IsControl() && pc != lp.back {
			if int(in.Imm) < lp.head || int(in.Imm) > lp.back+1 {
				return Loop{}, fmt.Sprintf("branch at %d leaves the body", pc)
			}
		}
	}

	// Top glue: leading exit tests (top-test loops with a bottom jump,
	// the Listing 1 shape) stay outside the slice; their targets are the
	// loop exit.
	sliceStart := lp.head
	exit := lp.back + 1
	for sliceStart < lp.back {
		in := p.Code[sliceStart]
		if in.Op.IsBranch() && (int(in.Imm) < lp.head || int(in.Imm) > lp.back) {
			exit = int(in.Imm)
			sliceStart++
			continue
		}
		break
	}

	// Bottom glue: the backward closure of the loop-control condition
	// registers over the body suffix — the induction computation that
	// must stay outside the slice (Listing 1's iterator). The loop
	// condition lives either on the back edge (bottom-test loops) or in
	// the peeled top exit tests (top-test loops with a bottom jump).
	glueRegs := map[isa.Reg]bool{}
	absorb := func(in isa.Inst) {
		regs, n := in.Reads()
		for _, r := range regs[:n] {
			glueRegs[r] = true
		}
	}
	absorb(p.Code[lp.back])
	for _, in := range p.Code[lp.head:sliceStart] {
		absorb(in)
	}
	glueStart := lp.back
	for i := lp.back - 1; i >= sliceStart; i-- {
		in := p.Code[i]
		if in.Op.HasDst() && glueRegs[in.Dst] && !in.Op.IsMem() {
			// Part of the induction chain: absorb its sources too.
			absorb(in)
			glueStart = i
			continue
		}
		break
	}
	if glueStart <= sliceStart {
		return Loop{}, "body is all induction glue"
	}
	slice := p.Code[sliceStart:glueStart]

	// No control transfer inside the slice may target outside it;
	// jumping to glueStart is the common "continue" pattern.
	for i, in := range slice {
		if in.Op.IsControl() {
			if int(in.Imm) < sliceStart || int(in.Imm) > glueStart {
				return Loop{}, fmt.Sprintf("branch at %d escapes the slice", sliceStart+i)
			}
		}
	}

	// Register discipline.
	writtenIn := map[isa.Reg]bool{}
	writtenBefore := map[isa.Reg]bool{}
	for _, in := range slice {
		regs, n := in.Reads()
		for _, r := range regs[:n] {
			if writtenBefore[r] {
				continue
			}
			if glueRegs[r] {
				continue // reading the iterator is allowed
			}
			// Must be loop-invariant: never written in the body.
			for _, bin := range body {
				if bin.Op.HasDst() && bin.Dst == r {
					return Loop{}, fmt.Sprintf("register %v is loop-carried into the slice", r)
				}
			}
		}
		if in.Op.HasDst() && in.Dst != isa.R0 {
			writtenIn[in.Dst] = true
			writtenBefore[in.Dst] = true
		}
	}
	// Slice-written registers must be dead outside the slice: no read
	// anywhere outside (the §4.2 requirement that slice renamings are
	// dead at slice_end). Reads in other iterations of this same slice
	// are covered because the slice always writes before reading them.
	for pc, in := range p.Code {
		if pc >= sliceStart && pc < glueStart {
			continue
		}
		regs, n := in.Reads()
		for _, r := range regs[:n] {
			if writtenIn[r] {
				return Loop{}, fmt.Sprintf("slice-written register %v read at pc %d", r, pc)
			}
		}
	}

	return Loop{Head: lp.head, SliceStart: sliceStart, BackEdge: lp.back,
		SliceEnd: glueStart, Exit: exit}, ""
}

// insert rewrites the program with slice_start at each loop head,
// slice_end before the glue, and slice_fence at the loop exit, remapping
// every control target.
func insert(p *isa.Program, loops []Loop) *isa.Program {
	type ins struct {
		at int // original index the marker is inserted before
		op isa.Op
	}
	var inss []ins
	for _, lp := range loops {
		inss = append(inss, ins{lp.SliceStart, isa.SliceStart})
		inss = append(inss, ins{lp.SliceEnd, isa.SliceEnd})
		inss = append(inss, ins{lp.Exit, isa.SliceFence})
	}

	// newIndex maps an original index to its rewritten position: count
	// insertions at or before it. Branch targets use "insert before", so
	// a target equal to an insertion point lands after start markers —
	// except the loop head, where the back edge must re-enter *at* the
	// slice_start... Semantically both work (slice_start is the first
	// body instruction); re-entering at slice_start keeps iterations
	// uniform, so targets map to the position of the first marker
	// inserted at that index.
	shift := func(idx int, includeAt bool) int {
		s := 0
		for _, i := range inss {
			if i.at < idx || (includeAt && i.at == idx) {
				s++
			}
		}
		return idx + s
	}

	var code []isa.Inst
	for pc := 0; pc <= len(p.Code); pc++ {
		for _, i := range inss {
			if i.at == pc {
				code = append(code, isa.Inst{Op: i.op})
			}
		}
		if pc == len(p.Code) {
			break
		}
		in := p.Code[pc]
		if in.Op.IsControl() {
			in.Imm = int64(shift(int(in.Imm), false))
		}
		code = append(code, in)
	}

	labels := make(map[string]int, len(p.Labels))
	for name, at := range p.Labels {
		labels[name] = shift(at, false)
	}
	return &isa.Program{Name: p.Name + "+autoslice", Code: code, Labels: labels}
}
