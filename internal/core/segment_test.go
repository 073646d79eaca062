package core

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/program"
)

// longSlices builds a loop of the given number of slices. Each slice
// opens with a data-dependent branch, then runs an inner loop of iters
// iterations (load, store, two adds and the loop branch), so the rest of
// the slice after that first branch is about 5*iters instructions long.
func longSlices(slices, iters int) (*isa.Program, []byte) {
	vals := make([]uint32, 64)
	for i := range vals {
		vals[i] = uint32(i*7 + 3)
	}
	l := program.NewLayout()
	aBase := l.AllocU32(len(vals), vals)
	bBase := l.AllocU32(len(vals), nil)

	b := program.NewBuilder("longSlices")
	rK, rM, rI, rN := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	rA, rB, rX, rJ := b.Reg(), b.Reg(), b.Reg(), b.Reg()
	b.Li(rK, 0)
	b.Li(rM, int64(slices))
	b.Li(rN, int64(iters))
	b.Li(rA, int64(aBase))
	b.Li(rB, int64(bBase))
	b.Label("outer")
	b.Bge(rK, rM, "done")
	b.SliceStart(true)
	b.AndI(rJ, rK, 63)
	b.LdX32(rX, rA, rJ, 2)
	b.AndI(rX, rX, 1)
	b.Beq(rX, isa.R0, "even")
	b.AddI(rX, rX, 3)
	b.Label("even")
	b.Li(rI, 0)
	b.Label("inner")
	b.AndI(rJ, rI, 63)
	b.LdX32(rX, rA, rJ, 2)
	b.StX32(rB, rJ, 2, rX)
	b.AddI(rI, rI, 1)
	b.Blt(rI, rN, "inner")
	b.SliceEnd(true)
	b.AddI(rK, rK, 1)
	b.Jmp("outer")
	b.Label("done")
	b.SliceFence(true)
	b.Halt()
	return b.Build(), l.Image()
}

// stepToSliceBranch steps m into *d until d is an in-slice conditional
// branch, the point where fetch builds a miss's segment.
func stepToSliceBranch(tb testing.TB, m *emu.Machine, d *emu.DynInst) {
	tb.Helper()
	for {
		if err := m.StepInto(d); err != nil {
			tb.Fatal(err)
		}
		if d.InSlice && d.IsBranch() {
			return
		}
	}
}

// TestSegmentStoreEquivalence checks the 16-byte record, then builds each
// slice's segment through a thread's machine and requires every rebuilt
// record to equal what a reference machine's StepInto produces, through
// whole views and through a nested miss's suffix view. Each segment spans
// several chunks, and every build after the first reuses the first's
// chunks.
func TestSegmentStoreEquivalence(t *testing.T) {
	if n := unsafe.Sizeof(segRec{}); n != 16 {
		t.Fatalf("a segment record takes %d bytes, want 16", n)
	}
	prog, img := longSlices(3, 500)
	ref := emu.New(prog, bytes.Clone(img))
	c := &Core{}
	th := &thread{c: c, m: emu.New(prog, bytes.Clone(img))}

	var want, got emu.DynInst
	segs := 0
	for !ref.Halted {
		if err := ref.StepInto(&want); err != nil {
			t.Fatal(err)
		}
		if err := th.m.StepInto(&got); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("record #%d diverges before any segment", want.Seq)
		}
		if !want.InSlice || !want.IsBranch() {
			continue
		}
		b := c.buildSegment(th, want.SliceID)
		if b.n <= 2*segChunkLen {
			t.Fatalf("segment of %d records spans fewer than three chunks", b.n)
		}
		head := segment{buf: b, hi: b.n}
		tail := head.split(b.n / 2)
		n := head.len() + tail.len()
		for i := 0; i < n; i++ {
			if err := ref.StepInto(&want); err != nil {
				t.Fatal(err)
			}
			if k := head.len(); i < k {
				head.at(i, &got)
			} else {
				tail.at(i-k, &got)
			}
			if got != want {
				t.Fatalf("record %d of segment %d rebuilds as %+v, stepped %+v",
					i, segs, got, want)
			}
		}
		if want.Inst.Op != isa.SliceEnd {
			t.Fatalf("segment %d ends with %v, not slice_end", segs, want.Inst.Op)
		}
		if n != b.n || b.refs != 2 {
			t.Fatalf("views of segment %d disagree", segs)
		}
		c.dropSeg(head.buf)
		c.dropSeg(tail.buf)
		segs++
	}
	if segs != 3 {
		t.Fatalf("built %d segments, want 3", segs)
	}
	if len(c.segPool) != c.segBufsMade || len(c.chunkPool) != c.chunksMade ||
		c.segBufsMade != 1 {
		t.Fatalf("pools not recycled: %d of %d buffers, %d of %d chunks free",
			len(c.segPool), c.segBufsMade, len(c.chunkPool), c.chunksMade)
	}
}

// TestSegmentAppendCheckPanics corrupts one field of a real segment
// record at a time: the append check must refuse each, because the
// stored record would rebuild as a different instruction.
func TestSegmentAppendCheckPanics(t *testing.T) {
	prog, img := longSlices(1, 4)
	m := emu.New(prog, img)
	var br, first, second emu.DynInst
	stepToSliceBranch(t, m, &br)
	for _, d := range []*emu.DynInst{&first, &second} {
		if err := m.StepInto(d); err != nil {
			t.Fatal(err)
		}
	}
	appendBoth := func(corrupt func(*emu.DynInst)) (panicked bool) {
		c := &Core{}
		b := c.getSegBuf()
		b.code, b.sliceID = prog.Code, br.SliceID
		c.appendSeg(b, &first)
		d := second
		corrupt(&d)
		defer func() { panicked = recover() != nil }()
		c.appendSeg(b, &d)
		return false
	}
	if appendBoth(func(*emu.DynInst) {}) {
		t.Fatal("append check refused a record stepped from the slice")
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*emu.DynInst)
	}{
		{"seq gap", func(d *emu.DynInst) { d.Seq++ }},
		{"next pc", func(d *emu.DynInst) { d.NextPC++ }},
		{"instruction", func(d *emu.DynInst) { d.Inst.Imm++ }},
		{"wrong path", func(d *emu.DynInst) { d.Wrong = true }},
		{"out-of-bounds access", func(d *emu.DynInst) { d.MemOOB = true }},
		{"outside the slice", func(d *emu.DynInst) { d.InSlice = false }},
		{"other slice", func(d *emu.DynInst) { d.SliceID++ }},
	} {
		if !appendBoth(tc.corrupt) {
			t.Errorf("%s: append check accepted a record it cannot rebuild", tc.name)
		}
	}
}

// TestSegmentBuildToSliceEnd builds a segment at an in-slice branch: it
// holds the rest of the slice through its slice_end, in program order,
// and leaves the machine after the slice.
func TestSegmentBuildToSliceEnd(t *testing.T) {
	prog, mem := twoBranchSlice(4)
	m := emu.New(prog, mem)
	c := &Core{}
	th := &thread{c: c, m: m}
	var br emu.DynInst
	stepToSliceBranch(t, th.m, &br)
	b := c.buildSegment(th, br.SliceID)
	s := segment{buf: b, hi: b.n}
	if s.len() == 0 || uint64(s.len()) != m.Seq()-br.Seq-1 {
		t.Fatalf("segment holds %d records; the machine ran %d past the branch",
			s.len(), m.Seq()-br.Seq-1)
	}
	if op := s.op(s.len() - 1); op != isa.SliceEnd {
		t.Fatalf("segment must end with slice_end, got %v", op)
	}
	if m.InSlice() {
		t.Fatal("machine still in slice after the segment build")
	}
	var d emu.DynInst
	for i := 0; i < s.len(); i++ {
		s.at(i, &d)
		if d.Seq != br.Seq+1+uint64(i) || d.SliceID != br.SliceID {
			t.Fatalf("record %d: seq %d slice %d after branch #%d of slice %d",
				i, d.Seq, d.SliceID, br.Seq, br.SliceID)
		}
	}
}

// TestSegmentBuildOutsideSlicePanics: a machine outside any slice has no
// segment to build, and its first record fails the append check.
func TestSegmentBuildOutsideSlicePanics(t *testing.T) {
	prog, mem := twoBranchSlice(2)
	c := &Core{}
	th := &thread{c: c, m: emu.New(prog, mem)}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "cannot be rebuilt") {
			t.Fatalf("building outside a slice: recovered %v", r)
		}
	}()
	c.buildSegment(th, 1)
}

// TestCheckQuiescentPools runs a sliced program with nested misses to
// completion (runCore requires quiescence, so every pool came back), then
// counts one more allocation for each pool in turn: quiesce must fail and
// name that pool.
func TestCheckQuiescentPools(t *testing.T) {
	prog, mem := twoBranchSlice(600)
	c := runCore(t, selectiveConfig(), prog, mem, nil)
	if c.chunksMade == 0 || c.segBufsMade == 0 || c.missesMade == 0 {
		t.Fatalf("run did not use the pools: %d chunks, %d buffers, %d misses",
			c.chunksMade, c.segBufsMade, c.missesMade)
	}
	for _, tc := range []struct {
		name string
		made *int
	}{
		{"segment chunk", &c.chunksMade},
		{"segment buffer", &c.segBufsMade},
		{"miss", &c.missesMade},
	} {
		*tc.made++
		err := c.CheckQuiescent()
		*tc.made--
		if err == nil || !strings.Contains(err.Error(), tc.name+" free list") {
			t.Errorf("%s missing from its free list: CheckQuiescent = %v", tc.name, err)
		}
	}
	if err := c.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

const segBenchIters = 1000 // about 5,000 records a segment

// BenchmarkSegmentStore builds one segment from a live machine and
// rebuilds every record of it, per op.
func BenchmarkSegmentStore(b *testing.B) {
	prog, img := longSlices(b.N, segBenchIters)
	c := &Core{}
	th := &thread{c: c, m: emu.New(prog, img)}
	var br, d emu.DynInst
	records := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepToSliceBranch(b, th.m, &br)
		sb := c.buildSegment(th, br.SliceID)
		for j := 0; j < sb.n; j++ {
			sb.rebuild(j, &d)
		}
		records += sb.n
		c.dropSeg(sb)
	}
	if d.Inst.Op != isa.SliceEnd {
		b.Fatalf("last record rebuilt as %v, not slice_end", d.Inst.Op)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}
