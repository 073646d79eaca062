package trace

import (
	"encoding/binary"
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
)

// Replay steps through a captured trace. It reconstructs every DynInst of
// the original execution — same sequence numbers, branch outcomes,
// addresses, and slice context — without re-executing the functional
// emulator, and maintains the architectural register file and memory
// image as a cursor over the stream.
//
// A Replay owns its memory image the way a Machine does: recorded stores
// are applied in program order, so after the stream is consumed the image
// equals the live execution's final memory. One Replay serves one pass;
// the underlying Trace is immutable and shared.
type Replay struct {
	tr   *Trace
	prog *isa.Program
	mem  []byte
	regs [isa.NumRegs]uint64

	cur    int // next record index; doubles as the sequence number
	vi, ai int // cursors into the dense vals/addrs streams

	halted  bool
	inSlice bool
	sliceID uint64
}

// NewReplay builds a Replay of tr against prog and mem. The
// program must be the one the trace was captured from (checked cheaply by
// name and length); mem is the workload's initial memory image, mutated
// in place as recorded stores are applied.
func NewReplay(tr *Trace, prog *isa.Program, mem []byte) (*Replay, error) {
	if prog.Name != tr.progName || len(prog.Code) != tr.progLen {
		return nil, fmt.Errorf("trace: replaying %s (%d insts) with trace of %s (%d insts)",
			prog.Name, len(prog.Code), tr.progName, tr.progLen)
	}
	return &Replay{tr: tr, prog: prog, mem: mem}, nil
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
	return nil
}

// Done reports whether every record has been consumed (the replayed run
// reached its halt); the final memory image is complete only then.
func (r *Replay) Done() bool { return r.cur >= len(r.tr.pcs) }
