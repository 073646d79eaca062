package rob

import "testing"

// TestSpaceBlockWasteTable: the Fig. 3 stranding rules across block sizes —
// a selective flush strands the tail of the last flushed block and the
// tail of the last resolve-path block, independently.
func TestSpaceBlockWasteTable(t *testing.T) {
	cases := []struct {
		block          int
		flush, resolve int
		want           int
	}{
		{1, 7, 13, 0},  // unblocked: no stranding ever
		{2, 7, 13, 2},  // one odd entry stranded on each side
		{2, 8, 12, 0},  // both aligned
		{4, 7, 13, 4},  // (4-3) + (4-1)
		{4, 0, 13, 3},  // nothing flushed: only the splice tail strands
		{4, 7, 0, 1},   // empty resolve path: only the flush tail strands
		{8, 10, 13, 9}, // (8-2) + (8-5)
		{8, 16, 8, 0},  // aligned on both sides
		{8, 1, 1, 14},  // worst case: two nearly-empty blocks
	}
	for _, tc := range cases {
		s := NewSpace(64, tc.block)
		g := s.FlushGaps(tc.flush, tc.resolve, 100, 0)
		if g != tc.want {
			t.Errorf("block %d flush %d resolve %d: stranded %d, want %d",
				tc.block, tc.flush, tc.resolve, g, tc.want)
			continue
		}
		if s.Gaps() != g || s.Free() != 64-g {
			t.Errorf("block %d: Gaps/Free inconsistent after FlushGaps", tc.block)
		}
		s.CommitSeq(100)
		if s.Gaps() != 0 || s.Free() != 64 {
			t.Errorf("block %d: gaps not reclaimed at release seq", tc.block)
		}
	}
}

// TestSpaceKeepFreeClamp: stranding never eats into the reserved floor —
// the §4.7 reservation must survive block padding or the resolve path
// deadlocks against its own gaps.
func TestSpaceKeepFreeClamp(t *testing.T) {
	for _, keep := range []int{0, 1, 3, 8} {
		s := NewSpace(16, 8)
		for i := 0; i < 8; i++ {
			s.Alloc()
		}
		// Hypothetical waste 7+7=14 against 8 free entries.
		g := s.FlushGaps(1, 1, 1, keep)
		wantG := 8 - keep
		if wantG > 14 {
			wantG = 14
		}
		if wantG < 0 {
			wantG = 0
		}
		if g != wantG {
			t.Errorf("keepFree %d: stranded %d, want %d", keep, g, wantG)
		}
		if s.Free() < keep {
			t.Errorf("keepFree %d: only %d entries left allocatable", keep, s.Free())
		}
	}
}

// TestSpaceGapReclaimOrder: gap batches from independent splices are
// reclaimed individually as their release points commit, oldest first or
// out of order alike.
func TestSpaceGapReclaimOrder(t *testing.T) {
	s := NewSpace(64, 4)
	if g := s.FlushGaps(1, 1, 10, 0); g != 6 {
		t.Fatalf("first splice stranded %d, want 6", g)
	}
	if g := s.FlushGaps(2, 2, 20, 0); g != 4 {
		t.Fatalf("second splice stranded %d, want 4", g)
	}
	if g := s.FlushGaps(3, 3, 5, 0); g != 2 {
		t.Fatalf("third splice stranded %d, want 2", g)
	}
	// Committing seq 5 reclaims only the third batch (release 5).
	s.CommitSeq(5)
	if s.Gaps() != 10 {
		t.Fatalf("gaps = %d after seq 5, want 10", s.Gaps())
	}
	// Seq 15 reclaims the first batch (release 10), not the second (20).
	s.CommitSeq(15)
	if s.Gaps() != 4 {
		t.Fatalf("gaps = %d after seq 15, want 4", s.Gaps())
	}
	s.CommitSeq(20)
	if s.Gaps() != 0 || s.Free() != 64 {
		t.Fatalf("gaps = %d free = %d after all commits", s.Gaps(), s.Free())
	}
}

// TestSpaceAllocBlockedByGaps: stranded entries consume real capacity —
// allocation fails when used+gaps reach the size, and resumes once a
// conventional flush reclaims everything.
func TestSpaceAllocBlockedByGaps(t *testing.T) {
	s := NewSpace(8, 4)
	for i := 0; i < 4; i++ {
		if !s.Alloc() {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if g := s.FlushGaps(1, 1, 50, 0); g != 4 {
		t.Fatalf("stranded %d, want 4 (clamped to free)", g)
	}
	if s.Alloc() {
		t.Fatal("allocation succeeded with zero free entries")
	}
	s.ReleaseAllGaps()
	if s.Free() != 4 || !s.Alloc() {
		t.Fatal("allocation still blocked after ReleaseAllGaps")
	}
}
