package bpred

// TAGE — TAgged GEometric-history-length predictor (Seznec, "A new case
// for the TAGE branch predictor", MICRO 2011), the predictor of the
// paper's Table 1 configuration.
//
// Structure: a bimodal base predictor plus tageTables tagged components
// indexed by hashes of the PC and geometrically increasing slices of the
// global history. Prediction comes from the matching component with the
// longest history ("provider"); on a misprediction a new entry is
// allocated in a longer-history component. Usefulness (u) bits protect
// entries that outperformed the alternate prediction and decay
// periodically.
//
// This implementation caps the global history at 64 bits (lengths
// 4/8/16/32/64), which preserves TAGE's behaviour on the loop and
// data-dependent branches of the evaluated kernels while keeping history
// snapshots O(1).

const (
	tageTables  = 5
	tageIdxBits = 10
	tageTagBits = 9
	baseBits    = 13
	tageCtrBits = 3
	decayPeriod = 1 << 18 // u-bit decay interval, in updates
)

var tageHistLen = [tageTables]uint{4, 8, 16, 32, 64}

type tageEntry struct {
	tag uint16
	ctr int8 // 3-bit signed, >= 0 means taken
	u   uint8
}

// TAGE implements Predictor.
type TAGE struct {
	base    []int8
	tables  [tageTables][]tageEntry
	hist    uint64
	updates uint64
	lfsr    uint32 // deterministic pseudo-randomness for allocation
}

// NewTAGE returns a TAGE predictor with the default geometry.
func NewTAGE() *TAGE {
	t := &TAGE{base: make([]int8, 1<<baseBits), lfsr: 0xace1}
	for i := range t.tables {
		t.tables[i] = make([]tageEntry, 1<<tageIdxBits)
	}
	return t
}

// fold compresses the low n bits of h into chunks of width bits, XORed.
func fold(h uint64, n, width uint) uint64 {
	h &= 1<<n - 1
	var f uint64
	for n > 0 {
		f ^= h & (1<<width - 1)
		h >>= width
		if n >= width {
			n -= width
		} else {
			n = 0
		}
	}
	return f
}

func (t *TAGE) index(pc uint64, table int, hist uint64) uint32 {
	hl := tageHistLen[table]
	h := fold(hist, hl, tageIdxBits)
	return uint32((pc ^ pc>>tageIdxBits ^ h ^ uint64(table)*0x9e37) & (1<<tageIdxBits - 1))
}

func (t *TAGE) tagOf(pc uint64, table int, hist uint64) uint16 {
	hl := tageHistLen[table]
	h := fold(hist, hl, tageTagBits) ^ fold(hist, hl, tageTagBits-1)<<1
	return uint16((pc ^ pc>>(tageTagBits+2) ^ h) & (1<<tageTagBits - 1))
}

// Predict implements Predictor.
func (t *TAGE) Predict(pc uint64, _ bool) (bool, Pred) {
	p := Pred{Hist: t.hist, provider: -1}
	p.baseIdx = uint32(pc & (1<<baseBits - 1))
	basePred := t.base[p.baseIdx] >= 0

	alt := -1
	for i := 0; i < tageTables; i++ {
		p.idx[i] = t.index(pc, i, t.hist)
		p.tag[i] = t.tagOf(pc, i, t.hist)
		if t.tables[i][p.idx[i]].tag == p.tag[i] {
			alt = p.provider
			p.provider = i
		}
	}
	if p.provider >= 0 {
		e := t.tables[p.provider][p.idx[p.provider]]
		p.provPred = e.ctr >= 0
		p.Conf = e.u
		if alt >= 0 {
			p.altPred = t.tables[alt][p.idx[alt]].ctr >= 0
		} else {
			p.altPred = basePred
		}
		p.Taken = p.provPred
	} else {
		p.altPred = basePred
		p.Taken = basePred
		p.Conf = ctrConf(t.base[p.baseIdx], 2)
	}
	return p.Taken, p
}

// OnFetch implements Predictor.
func (t *TAGE) OnFetch(taken bool) {
	t.hist = t.hist<<1 | b2u(taken)
}

func (t *TAGE) rand() uint32 {
	// 16-bit Galois LFSR.
	lsb := t.lfsr & 1
	t.lfsr >>= 1
	if lsb != 0 {
		t.lfsr ^= 0xb400
	}
	return t.lfsr
}

// Resolve implements Predictor.
func (t *TAGE) Resolve(p Pred, pc uint64, actual bool, repairHist bool) {
	t.updates++
	mispred := p.Taken != actual

	// Train the provider (or the base predictor).
	if p.provider >= 0 {
		e := &t.tables[p.provider][p.idx[p.provider]]
		// Usefulness: provider differed from altpred and was right.
		if p.provPred != p.altPred {
			if p.provPred == actual {
				if e.u < 3 {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
		e.ctr = ctrUpdate(e.ctr, actual, tageCtrBits)
		// Weak new entries also train the base so it stays a sane
		// fallback.
		if e.u == 0 {
			t.base[p.baseIdx] = ctrUpdate(t.base[p.baseIdx], actual, 2)
		}
	} else {
		t.base[p.baseIdx] = ctrUpdate(t.base[p.baseIdx], actual, 2)
	}

	// On a misprediction, allocate an entry in a longer-history table.
	if mispred && p.provider < tageTables-1 {
		start := p.provider + 1
		allocated := false
		// Slightly favour shorter tables, as in the reference design:
		// skip the first candidate with probability 1/2.
		if start < tageTables-1 && t.rand()&1 == 0 {
			start++
		}
		for i := start; i < tageTables; i++ {
			e := &t.tables[i][p.idx[i]]
			if e.u == 0 {
				e.tag = p.tag[i]
				if actual {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				e.u = 0
				allocated = true
				break
			}
		}
		if !allocated {
			for i := start; i < tageTables; i++ {
				e := &t.tables[i][p.idx[i]]
				if e.u > 0 {
					e.u--
				}
			}
		}
	}

	// Periodic graceful decay of u bits.
	if t.updates%decayPeriod == 0 {
		for i := range t.tables {
			for j := range t.tables[i] {
				t.tables[i][j].u >>= 1
			}
		}
	}

	// Repair speculative history after a misprediction that flushed
	// everything younger.
	if mispred && repairHist {
		t.hist = p.Hist<<1 | b2u(actual)
	}
}
