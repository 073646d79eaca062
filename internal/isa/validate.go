package isa

import "fmt"

// Validate checks static well-formedness of a program:
//
//   - all control-flow targets are within the code,
//   - the program ends in Halt (or an unconditional backward jump),
//   - slice instructions are well formed: slices never nest, every
//     slice_start is closed by a slice_end, and slice_fence never appears
//     inside a slice,
//   - register indices are in range,
//   - every operand field an instruction does not use is zero: a source
//     register it does not read (see Inst.Reads) and a destination on an
//     op that writes none, so no consumer can read a field the emulator
//     ignores.
//
// Slice structure is checked linearly over the static code, which is the
// form the kernels in this repository use (a slice is a contiguous static
// range of instructions). Control flow may leave a slice only via its
// conditional branches; the emulator additionally checks dynamic slice
// discipline (see emu.Machine).
func Validate(p *Program) error {
	if len(p.Code) == 0 {
		return fmt.Errorf("%s: empty program", p.Name)
	}
	inSlice := false
	for pc, in := range p.Code {
		if in.Op >= numOps {
			return fmt.Errorf("%s: pc %d: invalid opcode %d", p.Name, pc, in.Op)
		}
		if in.Dst >= NumRegs || in.Src1 >= NumRegs || in.Src2 >= NumRegs || in.Val >= NumRegs {
			return fmt.Errorf("%s: pc %d: register out of range in %v", p.Name, pc, in)
		}
		f := opReads[in.Op]
		if f&readsSrc1 == 0 && in.Src1 != R0 || f&readsSrc2 == 0 && in.Src2 != R0 ||
			f&readsVal == 0 && in.Val != R0 {
			return fmt.Errorf("%s: pc %d: %v names a source register it does not read", p.Name, pc, in)
		}
		if !in.Op.HasDst() && in.Dst != R0 {
			return fmt.Errorf("%s: pc %d: %v names a destination it does not write", p.Name, pc, in)
		}
		if in.Op.IsControl() {
			if in.Imm < 0 || in.Imm >= int64(len(p.Code)) {
				return fmt.Errorf("%s: pc %d: control target @%d out of range [0,%d)",
					p.Name, pc, in.Imm, len(p.Code))
			}
		}
		switch in.Op {
		case SliceStart:
			if inSlice {
				return fmt.Errorf("%s: pc %d: nested slice_start", p.Name, pc)
			}
			inSlice = true
		case SliceEnd:
			if !inSlice {
				return fmt.Errorf("%s: pc %d: slice_end without slice_start", p.Name, pc)
			}
			inSlice = false
		case SliceFence:
			if inSlice {
				return fmt.Errorf("%s: pc %d: slice_fence inside a slice", p.Name, pc)
			}
		}
		if in.Reduce() && in.Op.IsControl() {
			return fmt.Errorf("%s: pc %d: reduce prefix on control instruction", p.Name, pc)
		}
	}
	if inSlice {
		return fmt.Errorf("%s: unterminated slice at end of code", p.Name)
	}
	last := p.Code[len(p.Code)-1]
	if last.Op != Halt && last.Op != Jmp {
		return fmt.Errorf("%s: program must end in halt or jmp, got %v", p.Name, last.Op)
	}
	return nil
}
