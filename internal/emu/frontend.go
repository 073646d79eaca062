package emu

import "repro/internal/isa"

// Frontend is the correct-path instruction source a core's thread fetches
// from: the architectural stream in program order, the static code it
// runs, and the one extra operation the selective-flush model needs
// (forking a wrong-path engine from the current state).
//
// Two implementations exist: the live functional emulator (*Machine, via
// AsFrontend) and the trace replayer (internal/trace.Replay), which feeds
// the identical stream from a captured trace without re-executing the
// emulator. The timing model is written against this interface only, so
// the two are interchangeable and results are byte-identical.
type Frontend interface {
	// StepInto writes the next correct-path dynamic instruction into
	// *d. The caller owns the record (the core steps straight into its
	// pooled uop); the frontend keeps no reference to it.
	StepInto(d *DynInst) error
	// Program is the static code the stream executes.
	Program() *isa.Program
	// Fork starts a wrong-path engine at startPC from the current
	// architectural register state; inSlice/sliceID seed its slice
	// context (that of the mispredicted branch). The frontend owns the
	// engine and re-seeds it on every call: the WrongPath returned is
	// valid until the next Fork on the same frontend, which abandons
	// the previous wrong path and its buffered stores.
	Fork(startPC int, inSlice bool, sliceID uint64) WrongPath
	// Halted reports whether the stream has ended (Halt executed).
	Halted() bool
	// NextPC is the code index of the next instruction Step would
	// produce.
	NextPC() int
}

// WrongPath is the wrong-path engine behind a Frontend fork: it executes
// down a mispredicted direction with buffered stores (see Shadow, its
// canonical implementation).
type WrongPath interface {
	StepInto(dir BranchDir, d *DynInst) bool
	Dead() bool
	NextPC() int
	InSlice() bool
}

// machineFrontend adapts *Machine to Frontend. Machine exposes Halted and
// PC as fields (the emulator's tests and tools poke them directly), so the
// method set lives on this wrapper instead, beside the one wrong-path
// engine its forks re-seed.
type machineFrontend struct {
	m      *Machine
	shadow Shadow
}

// AsFrontend wraps a live machine as a core frontend.
func AsFrontend(m *Machine) Frontend { return &machineFrontend{m: m} }

func (f *machineFrontend) StepInto(d *DynInst) error { return f.m.StepInto(d) }

func (f *machineFrontend) Program() *isa.Program { return f.m.Prog }

func (f *machineFrontend) Fork(startPC int, inSlice bool, sliceID uint64) WrongPath {
	f.shadow.Reseed(f.m.Prog, f.m.Mem, f.m.Regs, startPC, inSlice, sliceID)
	return &f.shadow
}

func (f *machineFrontend) Halted() bool { return f.m.Halted }

func (f *machineFrontend) NextPC() int { return f.m.PC }
