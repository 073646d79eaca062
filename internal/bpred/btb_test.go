package bpred

import "testing"

// TestBTBLRUEviction: inserting into a full set evicts the
// least-recently-used way, where a Lookup hit counts as a use.
func TestBTBLRUEviction(t *testing.T) {
	b := NewBTB(4, 2)
	// PCs 1, 5, 9 all map to set 1 of a 4-set BTB.
	b.Insert(1, 10)
	b.Insert(5, 50)
	if _, hit := b.Lookup(1); !hit {
		t.Fatal("pc 1 missing before eviction")
	}
	// Set is full and pc 5 is now LRU: inserting pc 9 must evict it.
	b.Insert(9, 90)
	if _, hit := b.Lookup(5); hit {
		t.Fatal("LRU entry (pc 5) survived eviction")
	}
	if tgt, hit := b.Lookup(1); !hit || tgt != 10 {
		t.Fatal("recently used entry (pc 1) was evicted")
	}
	if tgt, hit := b.Lookup(9); !hit || tgt != 90 {
		t.Fatal("newly inserted entry (pc 9) missing")
	}
}

// TestBTBInsertPrefersInvalid: an invalid way is always filled before any
// valid entry is evicted.
func TestBTBInsertPrefersInvalid(t *testing.T) {
	b := NewBTB(2, 4)
	for i, pc := range []uint64{0, 2, 4} {
		b.Insert(pc, i)
	}
	b.Insert(6, 3) // set 0 has one invalid way left
	for i, pc := range []uint64{0, 2, 4, 6} {
		if tgt, hit := b.Lookup(pc); !hit || tgt != i {
			t.Fatalf("pc %d lost while invalid ways remained", pc)
		}
	}
}

// TestBTBFullTagNoFalseHits: the tag is the full PC, so same-set PCs can
// never alias onto each other's targets.
func TestBTBFullTagNoFalseHits(t *testing.T) {
	b := NewBTB(4, 2)
	b.Insert(1, 10)
	for _, pc := range []uint64{5, 9, 13} { // same set, different PC
		if _, hit := b.Lookup(pc); hit {
			t.Fatalf("false hit for pc %d on pc 1's entry", pc)
		}
	}
}

// TestBTBGeometries: insert-then-lookup works across set/way shapes, and
// capacity-plus-one inserts into one set evict exactly one entry.
func TestBTBGeometries(t *testing.T) {
	cases := []struct{ sets, ways int }{
		{1, 1}, {1, 4}, {16, 1}, {16, 4}, {64, 2},
	}
	for _, tc := range cases {
		b := NewBTB(tc.sets, tc.ways)
		// Fill one set past capacity.
		for i := 0; i <= tc.ways; i++ {
			pc := uint64(tc.sets * i) // all in set 0
			b.Insert(pc, i)
		}
		live := 0
		for i := 0; i <= tc.ways; i++ {
			if _, hit := b.Lookup(uint64(tc.sets * i)); hit {
				live++
			}
		}
		if live != tc.ways {
			t.Errorf("%dx%d: %d live entries after %d inserts, want %d",
				tc.sets, tc.ways, live, tc.ways+1, tc.ways)
		}
	}
}
