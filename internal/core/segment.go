package core

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
)

// The segment store. When an in-slice miss is detected, the core steps the
// machine through the rest of the slice and keeps that correct-path
// remainder (the miss's segment) until the branch resolves and resolve
// fetch delivers it (paper Fig. 2(d)). Most of a dynamic record follows
// from the program and from the record's place in its segment, so the
// store keeps only PC, branch direction and address, 16 bytes a record,
// and rebuilds the full emu.DynInst at resolve fetch:
//
//	Seq      the segment's first Seq plus the record's index
//	SliceID  the segment's slice
//	InSlice  true; Wrong and MemOOB false (correct path, one slice)
//	Inst     the program's code at PC
//	NextPC   from Inst and Taken, as emu.Machine.StepInto computes it
//
// Appending rebuilds each record and panics unless it equals what the
// machine stepped: a record the scheme cannot represent is a bug, never
// a silently different instruction.
//
// Records live in fixed-size chunks from a per-core free list. A segBuf
// is one build's chunks plus the header; a miss's segment is a view of
// it. A nested miss views the suffix after its branch and its parent's
// view ends there, so the buffer counts its views and returns its chunks
// and itself to the free lists when the last one is dropped.

// segRec is one buffered instruction of a segment.
type segRec struct {
	pc    int32
	taken bool
	addr  uint64
}

const (
	segChunkShift = 10
	segChunkLen   = 1 << segChunkShift // records per chunk (16 KiB)
)

type segChunk [segChunkLen]segRec

// segBuf is one segment build: its records, in chunks, and the header
// they are rebuilt from.
type segBuf struct {
	chunks  []*segChunk
	n       int    // records appended
	seq0    uint64 // Seq of record 0
	sliceID uint64
	code    []isa.Inst
	refs    int // views (misses) sharing the buffer
}

func (b *segBuf) rec(i int) *segRec {
	return &b.chunks[i>>segChunkShift][i&(segChunkLen-1)]
}

// rebuild writes the full dynamic record of entry i into *d.
func (b *segBuf) rebuild(i int, d *emu.DynInst) {
	r := b.rec(i)
	in := b.code[r.pc]
	next := int(r.pc) + 1
	if in.Op == isa.Jmp || in.Op.IsBranch() && r.taken {
		next = int(in.Imm)
	}
	// Field by field, like the emulator's StepInto: a composite literal
	// would be built aside and block-copied.
	d.Seq = b.seq0 + uint64(i)
	d.PC = int(r.pc)
	d.Inst = in
	d.NextPC = next
	d.Taken = r.taken
	d.Addr = r.addr
	d.MemOOB = false
	d.InSlice = true
	d.SliceID = b.sliceID
	d.Wrong = false
}

// appendSeg adds d, the next instruction of b's slice, and checks that
// the stored record rebuilds to exactly d.
func (c *Core) appendSeg(b *segBuf, d *emu.DynInst) {
	i := b.n
	if i == 0 {
		b.seq0 = d.Seq
	}
	if i>>segChunkShift == len(b.chunks) {
		b.chunks = append(b.chunks, c.getChunk())
	}
	*b.rec(i) = segRec{pc: int32(d.PC), taken: d.Taken, addr: d.Addr}
	b.n++
	var got emu.DynInst
	b.rebuild(i, &got)
	if got != *d {
		panic(fmt.Sprintf("core: segment record %d cannot be rebuilt: stepped %+v, rebuilt %+v",
			i, *d, got))
	}
}

// buildSegment steps t's machine through the rest of slice sliceID, its
// slice_end included, into a new buffer. The machine must be inside that
// slice: a record from outside it fails the append check.
func (c *Core) buildSegment(t *thread, sliceID uint64) *segBuf {
	prog := t.m.Prog
	b := c.getSegBuf()
	b.sliceID = sliceID
	b.code = prog.Code
	d := &c.segStep
	for {
		if err := t.m.StepInto(d); err != nil {
			panic(fmt.Sprintf("core %d thread %d: %v", c.id, t.id, err))
		}
		c.appendSeg(b, d)
		if d.Inst.Op == isa.SliceEnd {
			return b
		}
		if t.m.Halted {
			panic(fmt.Sprintf("core %d thread %d: %s: halt inside slice %d",
				c.id, t.id, prog.Name, sliceID))
		}
	}
}

func (c *Core) getChunk() *segChunk {
	if n := len(c.chunkPool); n > 0 {
		ch := c.chunkPool[n-1]
		c.chunkPool = c.chunkPool[:n-1]
		return ch
	}
	c.chunksMade++
	return new(segChunk)
}

func (c *Core) getSegBuf() *segBuf {
	if n := len(c.segPool); n > 0 {
		b := c.segPool[n-1]
		c.segPool = c.segPool[:n-1]
		b.refs = 1
		return b
	}
	c.segBufsMade++
	return &segBuf{refs: 1}
}

// dropSeg drops one view of b. The last one returns b's chunks and b
// itself to the free lists.
func (c *Core) dropSeg(b *segBuf) {
	if b.refs--; b.refs > 0 {
		return
	}
	c.chunkPool = append(c.chunkPool, b.chunks...)
	b.chunks = b.chunks[:0]
	b.n = 0
	c.segPool = append(c.segPool, b)
}

// segment is a miss's view of a buffer: entries lo..hi-1, indexed from 0.
type segment struct {
	buf    *segBuf
	lo, hi int
}

func (s *segment) len() int { return s.hi - s.lo }

// at rebuilds the view's record i into *d.
func (s *segment) at(i int, d *emu.DynInst) { s.buf.rebuild(s.lo+i, d) }

func (s *segment) pc(i int) int { return int(s.buf.rec(s.lo + i).pc) }

func (s *segment) op(i int) isa.Op { return s.buf.code[s.pc(i)].Op }

func (s *segment) seq(i int) uint64 { return s.buf.seq0 + uint64(s.lo+i) }

// split ends s before record i and returns the rest as a new view of the
// same buffer.
func (s *segment) split(i int) segment {
	rest := segment{buf: s.buf, lo: s.lo + i, hi: s.hi}
	s.hi = s.lo + i
	s.buf.refs++
	return rest
}
