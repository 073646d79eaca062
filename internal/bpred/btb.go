package bpred

// BTB is a set-associative branch target buffer. The virtual ISA has only
// direct branches, so the BTB's role in the model is detecting
// taken-branch redirects early in fetch: a predicted-taken branch that
// misses in the BTB costs a decode-stage redirect bubble.
type BTB struct {
	sets    int
	ways    int
	entries [][]btbEntry
	clock   uint64
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target int
	lru    uint64
}

// NewBTB returns a BTB with the given geometry.
func NewBTB(sets, ways int) *BTB {
	e := make([][]btbEntry, sets)
	for i := range e {
		e[i] = make([]btbEntry, ways)
	}
	return &BTB{sets: sets, ways: ways, entries: e}
}

// Lookup returns the stored target for pc, if present.
func (b *BTB) Lookup(pc uint64) (int, bool) {
	set := b.entries[pc%uint64(b.sets)]
	for i := range set {
		if set[i].valid && set[i].tag == pc {
			b.clock++
			set[i].lru = b.clock
			return set[i].target, true
		}
	}
	return 0, false
}

// Insert records the target of the branch at pc, evicting LRU on conflict.
func (b *BTB) Insert(pc uint64, target int) {
	set := b.entries[pc%uint64(b.sets)]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	b.clock++
	set[victim] = btbEntry{valid: true, tag: pc, target: target, lru: b.clock}
}
