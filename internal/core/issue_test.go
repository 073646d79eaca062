package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/isa"
)

// TestCandidateOrderMatchesDispatchSort drives the ready queue and the
// specials list through random dispatches, wakeups, issues, flushes and
// uop recycling, and checks at every selection that candidates followed
// by sortByAge gives the order selection used to compute: every live
// candidate sorted by dispatch order, then by age, with the same pdqsort.
// Ages are drawn from few values so ties are common, and are sometimes
// in dispatch order, sometimes not, so both the skipped and the run sort
// are checked; the queue grows past pdqsort's insertion-sort cutoff.
func TestCandidateOrderMatchesDispatchSort(t *testing.T) {
	byDispSeq := func(a, b *uop) int {
		if a.dispSeq < b.dispSeq {
			return -1
		}
		return 1
	}
	live := func(e readyRef) bool { return e.u.id == e.id && e.u.state == stWaiting }
	selections, sorted := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := &Core{}
		var waiting, inflight []*uop
		monotone := rng.Intn(2) == 0
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(10); {
			case r < 4: // dispatch, ready at once or waiting on operands
				u := c.newUop(nil)
				u.state = stWaiting
				u.dispSeq = c.dispSeqCtr
				c.dispSeqCtr++
				if monotone {
					u.age = u.dispSeq / 4
				} else {
					u.age = uint64(rng.Intn(6))
				}
				if rng.Intn(8) == 0 {
					u.d.Inst.Op = isa.Barrier
					u.barrierOK = rng.Intn(2) == 0
				}
				inflight = append(inflight, u)
				if rng.Intn(2) == 0 {
					c.enqueueReady(u)
				} else {
					waiting = append(waiting, u)
				}
			case r < 6: // wake a waiting uop
				if len(waiting) > 0 {
					i := rng.Intn(len(waiting))
					if waiting[i].state == stWaiting {
						c.enqueueReady(waiting[i])
					}
					waiting = slices.Delete(waiting, i, i+1)
				}
			case r < 7: // flush or release a uop; its pool slot is reused
				if len(inflight) > 0 {
					i := rng.Intn(len(inflight))
					u := inflight[i]
					inflight = slices.Delete(inflight, i, i+1)
					u.state = stFlushed
					c.freeUop(u)
				}
			case r < 8: // a barrier is released
				for _, e := range c.specials {
					if rng.Intn(2) == 0 {
						e.u.barrierOK = true
					}
				}
			default: // select
				var want []*uop
				for _, e := range c.readyQ {
					if live(e) {
						want = append(want, e.u)
					}
				}
				for _, e := range c.specials {
					if live(e) && c.specialReady(e.u) {
						want = append(want, e.u)
					}
				}
				slices.SortFunc(want, byDispSeq)
				slices.SortFunc(want, byAge)
				for i := 1; i < len(c.readyQ); i++ {
					if c.readyQ[i].seq < c.readyQ[i-1].seq {
						t.Fatalf("seed %d step %d: ready queue out of dispatch order at %d", seed, step, i)
					}
				}
				got := c.candidates()
				if slices.IsSortedFunc(got, byAge) {
					sorted++
				}
				sortByAge(got)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: %d candidates selected in a different order", seed, step, len(got))
				}
				selections++
				// Issue a few of them.
				for _, u := range got[:min(len(got), rng.Intn(4))] {
					u.state = stIssued
				}
				c.ready_ = got[:0]
			}
		}
	}
	if sorted == 0 || sorted == selections {
		t.Fatalf("%d of %d selections arrived in age order: one path of sortByAge went unchecked", sorted, selections)
	}
}
