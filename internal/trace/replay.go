package trace

import (
	"encoding/binary"
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
)

// Replay feeds a captured trace to the timing model as an emu.Frontend.
// It reconstructs every DynInst of the original execution — same sequence
// numbers, branch outcomes, addresses, and slice context — without
// re-executing the functional emulator, and maintains the architectural
// register file and memory image as a cursor over the stream so that
// wrong-path engines can fork from the exact state a live machine would
// have at any branch.
//
// A Replay owns its memory image the way a Machine does: recorded stores
// are applied in program order, so after the stream is consumed the image
// equals the live execution's final memory (workload output checks pass
// unchanged). One Replay serves one run; the underlying Trace is immutable
// and shared.
type Replay struct {
	tr   *Trace
	prog *isa.Program
	mem  []byte
	regs [isa.NumRegs]uint64

	cur    int // next record index; doubles as the sequence number
	vi, ai int // cursors into the dense vals/addrs streams

	nextPC  int
	halted  bool
	inSlice bool
	sliceID uint64

	// wp is the wrong-path engine every Fork re-seeds.
	wp emu.Shadow
}

// NewReplay builds a frontend replaying tr against prog and mem. The
// program must be the one the trace was captured from (checked cheaply by
// name and length); mem is the workload's initial memory image, mutated
// in place as recorded stores are applied.
func NewReplay(tr *Trace, prog *isa.Program, mem []byte) (*Replay, error) {
	if prog.Name != tr.progName || len(prog.Code) != tr.progLen {
		return nil, fmt.Errorf("trace: replaying %s (%d insts) with trace of %s (%d insts)",
			prog.Name, len(prog.Code), tr.progName, tr.progLen)
	}
	r := &Replay{tr: tr, prog: prog, mem: mem}
	if len(tr.pcs) > 0 {
		r.nextPC = int(tr.pcs[0])
	}
	return r, nil
}

func (r *Replay) get(reg isa.Reg) uint64 {
	if reg == isa.R0 {
		return 0
	}
	return r.regs[reg]
}

func (r *Replay) load(addr uint64, size int) (uint64, error) {
	if addr+uint64(size) > uint64(len(r.mem)) || addr+uint64(size) < addr {
		return 0, fmt.Errorf("trace: %s: replayed load of %d bytes at %#x outside memory (%d bytes)",
			r.prog.Name, size, addr, len(r.mem))
	}
	if size == 4 {
		return uint64(binary.LittleEndian.Uint32(r.mem[addr:])), nil
	}
	return binary.LittleEndian.Uint64(r.mem[addr:]), nil
}

func (r *Replay) store(addr uint64, size int, v uint64) error {
	if addr+uint64(size) > uint64(len(r.mem)) || addr+uint64(size) < addr {
		return fmt.Errorf("trace: %s: replayed store of %d bytes at %#x outside memory (%d bytes)",
			r.prog.Name, size, addr, len(r.mem))
	}
	if size == 4 {
		binary.LittleEndian.PutUint32(r.mem[addr:], uint32(v))
	} else {
		binary.LittleEndian.PutUint64(r.mem[addr:], v)
	}
	return nil
}

// Step produces the next recorded instruction and applies its
// architectural effects (register write, memory store) to the replay's
// state, mirroring Machine.Step record for record.
func (r *Replay) Step() (emu.DynInst, error) {
	var d emu.DynInst
	err := r.StepInto(&d)
	return d, err
}

// StepInto is Step writing the record into *d field by field, mirroring
// Machine.StepInto: *d is untouched by the errors raised before the
// record is decoded.
func (r *Replay) StepInto(d *emu.DynInst) error {
	if r.halted {
		return fmt.Errorf("%s: step after halt", r.prog.Name)
	}
	if r.cur >= len(r.tr.pcs) {
		return fmt.Errorf("trace: %s: stream exhausted without halt at record %d",
			r.prog.Name, r.cur)
	}
	pc := int(r.tr.pcs[r.cur])
	fl := r.tr.flags[r.cur]
	in := r.prog.Code[pc]
	d.Seq = uint64(r.cur)
	d.PC = pc
	d.Inst = in
	d.Taken = fl&flagTaken != 0
	d.Addr = 0
	d.MemOOB = false
	d.InSlice = r.inSlice
	d.SliceID = r.sliceID
	d.Wrong = false
	r.cur++

	if fl&flagAddr != 0 {
		d.Addr = r.tr.addrs[r.ai]
		r.ai++
	}

	// Memory effects first: stores read their data register, atomics read
	// old memory, both before the destination write lands (the recorded
	// destination value of an atomic is the old memory value, so ordering
	// only matters for the memory side).
	op := in.Op
	switch {
	case op.IsStore():
		if err := r.store(d.Addr, op.MemSize(), r.get(in.Val)); err != nil {
			return err
		}
	case op.IsAtomic():
		size := op.MemSize()
		old, err := r.load(d.Addr, size)
		if err != nil {
			return err
		}
		nv := old + r.get(in.Val)
		switch op {
		case isa.AMin64, isa.AMin32, isa.AMinX64, isa.AMinX32:
			nv = min(old, r.get(in.Val))
		}
		if err := r.store(d.Addr, size, nv); err != nil {
			return err
		}
	}

	if fl&flagVal != 0 {
		r.regs[in.Dst] = r.tr.vals[r.vi]
		r.vi++
	}

	// Control flow and slice context, mirroring Machine.Step.
	next := pc + 1
	switch op {
	case isa.Jmp:
		next = int(in.Imm)
	case isa.SliceStart:
		r.inSlice = true
		r.sliceID++
		d.SliceID = r.sliceID
	case isa.SliceEnd:
		r.inSlice = false
	case isa.Halt:
		r.halted = true
	}
	if op.IsBranch() && d.Taken {
		next = int(in.Imm)
	}
	d.NextPC = next
	r.nextPC = next
	return nil
}

// Fork re-seeds the replay's wrong-path engine from its current
// architectural state. Wrong paths are the one part of execution that
// cannot come from the trace — which branches mispredict (and therefore
// where wrong paths start) depends on the timing configuration — so they
// are regenerated exactly as a live machine regenerates them. As for
// every emu.Frontend, the engine is valid until the next Fork.
func (r *Replay) Fork(startPC int, inSlice bool, sliceID uint64) emu.WrongPath {
	r.wp.Reseed(r.prog, r.mem, r.regs, startPC, inSlice, sliceID)
	return &r.wp
}

// Program is the code the trace was captured from.
func (r *Replay) Program() *isa.Program { return r.prog }

// Halted reports whether the stream's Halt has been consumed.
func (r *Replay) Halted() bool { return r.halted }

// NextPC is the code index of the next instruction Step would produce.
func (r *Replay) NextPC() int { return r.nextPC }

// Done reports whether every record has been consumed (the replayed run
// reached its halt); the final memory image is complete only then.
func (r *Replay) Done() bool { return r.cur >= len(r.tr.pcs) }
