package rob

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func nodes(n int) []*Node[int] {
	ns := make([]*Node[int], n)
	for i := range ns {
		ns[i] = &Node[int]{Val: i}
	}
	return ns
}

func collect(l *List[int]) []int {
	var out []int
	l.Walk(func(n *Node[int]) bool {
		out = append(out, n.Val)
		return true
	})
	return out
}

func TestListPushRemove(t *testing.T) {
	var l List[int]
	ns := nodes(5)
	for _, n := range ns {
		l.PushBack(n)
	}
	if !l.Check() || l.Len() != 5 {
		t.Fatalf("bad list after pushes")
	}
	l.Remove(ns[2])
	if got := collect(&l); len(got) != 4 || got[2] != 3 {
		t.Fatalf("middle removal wrong: %v", got)
	}
	l.Remove(ns[0])
	l.Remove(ns[4])
	if got := collect(&l); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("endpoint removal wrong: %v", got)
	}
	if !l.Check() {
		t.Fatal("invariants broken")
	}
}

func TestInsertAfter(t *testing.T) {
	var l List[int]
	ns := nodes(3)
	l.PushBack(ns[0])
	l.PushBack(ns[2])
	l.InsertAfter(ns[0], ns[1])
	if got := collect(&l); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("splice wrong: %v", got)
	}
	// Insert at the tail position.
	n3 := &Node[int]{Val: 3}
	l.InsertAfter(ns[2], n3)
	if l.Tail() != n3 || !l.Check() {
		t.Fatal("tail splice wrong")
	}
}

func TestRemoveRangeAfter(t *testing.T) {
	var l List[int]
	ns := nodes(6)
	for _, n := range ns {
		l.PushBack(n)
	}
	// Victims append after whatever the caller's buffer already holds.
	sentinel := &Node[int]{Val: -1}
	victims := l.RemoveRangeAfter(ns[2], []*Node[int]{sentinel})
	if len(victims) != 4 || victims[0] != sentinel {
		t.Fatalf("got %d entries (first %v), want the sentinel then 3 victims",
			len(victims), victims[0].Val)
	}
	for i, v := range victims[1:] {
		if v.Val != 3+i {
			t.Fatalf("victims out of order: %v", v.Val)
		}
		if v.InList() {
			t.Fatal("victim still linked")
		}
	}
	if l.Tail() != ns[2] || !l.Check() {
		t.Fatal("tail not restored")
	}
}

func TestListPanics(t *testing.T) {
	var l List[int]
	n := &Node[int]{}
	expectPanic(t, "remove unlinked", func() { l.Remove(n) })
	l.PushBack(n)
	expectPanic(t, "double push", func() { l.PushBack(n) })
	m := &Node[int]{}
	expectPanic(t, "insert after unlinked", func() {
		var l2 List[int]
		l2.InsertAfter(m, &Node[int]{})
	})
}

func expectPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
}

// TestListQuick performs random operation sequences against a slice model
// (the selective-flush access pattern: push, splice after a survivor,
// remove from the middle) and checks structural invariants throughout.
func TestListQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var l List[int]
		var model []*Node[int]
		next := 0
		for op := 0; op < 200; op++ {
			switch r := rng.Intn(3); {
			case r == 0 || len(model) == 0: // push back
				n := &Node[int]{Val: next}
				next++
				l.PushBack(n)
				model = append(model, n)
			case r == 1: // remove random
				i := rng.Intn(len(model))
				l.Remove(model[i])
				model = append(model[:i], model[i+1:]...)
			default: // splice after random
				i := rng.Intn(len(model))
				n := &Node[int]{Val: next}
				next++
				l.InsertAfter(model[i], n)
				model = append(model[:i+1], append([]*Node[int]{n}, model[i+1:]...)...)
			}
			if !l.Check() || l.Len() != len(model) {
				return false
			}
		}
		got := collect(&l)
		for i, n := range model {
			if got[i] != n.Val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceBasics(t *testing.T) {
	s := NewSpace(8, 1)
	for i := 0; i < 8; i++ {
		if !s.Alloc() {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if s.Alloc() {
		t.Fatal("over-allocation")
	}
	s.Release()
	if s.Free() != 1 || !s.Alloc() {
		t.Fatal("release/realloc")
	}
}

func TestSpaceBlockGaps(t *testing.T) {
	s := NewSpace(64, 8)
	// Flush 10 entries, splice 13: waste = (8-10%8) + (8-13%8) = 6+3 = 9.
	g := s.FlushGaps(10, 13, 100, 0)
	if g != 9 {
		t.Fatalf("gaps = %d, want 9", g)
	}
	if s.Free() != 64-9 {
		t.Fatalf("free = %d", s.Free())
	}
	// Commit before the release point keeps the gaps.
	s.CommitSeq(99)
	if s.Gaps() != 9 {
		t.Fatal("gaps released early")
	}
	s.CommitSeq(100)
	if s.Gaps() != 0 || s.Free() != 64 {
		t.Fatal("gaps not reclaimed")
	}
}

func TestSpaceNoBlocksNoGaps(t *testing.T) {
	s := NewSpace(64, 1)
	if g := s.FlushGaps(7, 13, 1, 0); g != 0 {
		t.Fatalf("unblocked ROB produced gaps: %d", g)
	}
}

func TestSpaceAlignedNoWaste(t *testing.T) {
	s := NewSpace(64, 8)
	if g := s.FlushGaps(16, 8, 1, 0); g != 0 {
		t.Fatalf("block-aligned flush wasted %d", g)
	}
}

func TestSpaceGapCap(t *testing.T) {
	s := NewSpace(8, 8)
	for i := 0; i < 6; i++ {
		s.Alloc()
	}
	// Hypothetical waste 7+7=14 exceeds the 2 free entries: clamp.
	if g := s.FlushGaps(1, 1, 1, 0); g != 2 {
		t.Fatalf("gap clamp = %d, want 2", g)
	}
	s.ReleaseAllGaps()
	if s.Gaps() != 0 {
		t.Fatal("ReleaseAllGaps")
	}
}

// TestSpaceQuick: allocations plus gap bookkeeping never exceed capacity
// and never go negative.
func TestSpaceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace(32, 4)
		used := 0
		seq := uint64(0)
		for op := 0; op < 300; op++ {
			switch rng.Intn(4) {
			case 0:
				if s.Alloc() {
					used++
				}
			case 1:
				if used > 0 {
					s.Release()
					used--
				}
			case 2:
				s.FlushGaps(rng.Intn(10), rng.Intn(10), seq+uint64(rng.Intn(5)), rng.Intn(3))
			case 3:
				seq++
				s.CommitSeq(seq)
			}
			if s.Free() < 0 || s.Used() != used || s.Gaps() < 0 ||
				s.Used()+s.Gaps()+s.Free() != 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
