// Package bpred implements branch direction predictors (TAGE, gshare,
// bimodal, static, oracle) and a branch target buffer.
//
// The simulator is trace-driven: the actual branch outcome is known at
// prediction time and is passed to Predict so that the oracle predictor
// can be expressed uniformly. Honest predictors ignore it.
//
// History management follows hardware practice: the global history is
// updated speculatively at fetch with the *predicted* direction (wrong-path
// branches included), and repaired from a snapshot when a misprediction
// resolves. Predict returns a Pred token holding the snapshot and the
// table indices computed from prediction-time history; Resolve consumes it.
package bpred

import (
	"fmt"
	"strings"
)

// Predictor is the common direction-predictor interface.
type Predictor interface {
	// Predict returns the predicted direction for the conditional
	// branch at pc and a token to pass back to Resolve. actual is the
	// trace outcome (used only by the oracle).
	Predict(pc uint64, actual bool) (bool, Pred)
	// OnFetch shifts the direction the frontend actually followed into
	// the speculative global history. Call once per fetched conditional
	// branch (correct or wrong path).
	OnFetch(taken bool)
	// Resolve trains the predictor with the actual outcome of a
	// correct-path branch. When the prediction was wrong and repairHist
	// is true (a conventional flush discarded everything fetched since),
	// the speculative history is repaired from the token's snapshot; a
	// selective flush keeps younger fetched branches in flight, so the
	// core passes repairHist=false and the history keeps evolving.
	Resolve(p Pred, pc uint64, actual bool, repairHist bool)
}

// Pred is the per-prediction token: the predicted direction, the history
// snapshot for repair, and predictor-specific indices computed at
// prediction time.
type Pred struct {
	Taken bool
	Hist  uint64 // speculative global history at prediction time
	// Conf is the predictor's confidence in this prediction on a 0..3
	// scale (0 = lowest). TAGE reports the provider entry's usefulness
	// counter; the counter-table predictors (and TAGE's base fallback)
	// report 1 when the counter is saturated and 0 otherwise; the oracle
	// reports 3 and static 0. Consumed by the throttle recovery policy's
	// fetch gate.
	Conf uint8

	// TAGE fields (see tage.go).
	provider int // table number of the providing component, -1 = base
	altPred  bool
	provPred bool
	idx      [tageTables]uint32
	tag      [tageTables]uint16
	baseIdx  uint32
}

// predictors is the one table of predictor names: New builds from it
// and Validate checks against it, listing the names in this order.
var predictors = []struct {
	name  string
	build func() Predictor
}{
	{"tage", func() Predictor { return NewTAGE() }},
	{"gshare", func() Predictor { return NewGshare(14, 12) }},
	{"bimodal", func() Predictor { return NewBimodal(14) }},
	{"static", func() Predictor { return Static{} }},
	{"oracle", func() Predictor { return &Oracle{} }},
}

// Validate reports a name New does not know, listing the ones it does.
func Validate(name string) error {
	_, err := lookup(name)
	return err
}

func lookup(name string) (func() Predictor, error) {
	names := make([]string, len(predictors))
	for i, p := range predictors {
		if p.name == name {
			return p.build, nil
		}
		names[i] = p.name
	}
	return nil, fmt.Errorf("bpred: unknown predictor %q (%s)", name, strings.Join(names, ", "))
}

// New constructs a predictor by name: "tage", "gshare", "bimodal",
// "static", or "oracle". Unknown names panic: predictor choice is a
// configuration-time decision, checked beforehand by Validate.
func New(name string) Predictor {
	build, err := lookup(name)
	if err != nil {
		panic(err)
	}
	return build()
}

// ctrUpdate saturates a small signed counter in [-(1<<(bits-1)), (1<<(bits-1))-1].
func ctrUpdate(ctr int8, taken bool, bits uint) int8 {
	maxv := int8(1<<(bits-1)) - 1
	minv := -int8(1 << (bits - 1))
	if taken {
		if ctr < maxv {
			ctr++
		}
	} else {
		if ctr > minv {
			ctr--
		}
	}
	return ctr
}

// Static predicts backward branches taken and forward branches not taken.
// Lacking target information at this layer, it predicts not-taken, which
// matches the forward data-dependent branches that dominate the evaluated
// kernels; loop closers are mispredicted once per loop.
type Static struct{}

// Predict implements Predictor.
func (Static) Predict(uint64, bool) (bool, Pred) { return false, Pred{} }

// OnFetch implements Predictor.
func (Static) OnFetch(bool) {}

// Resolve implements Predictor.
func (Static) Resolve(Pred, uint64, bool, bool) {}

// Oracle always predicts correctly: the perfect-branch-prediction
// configuration of Figs. 4 and 11.
type Oracle struct{}

// Predict implements Predictor.
func (*Oracle) Predict(_ uint64, actual bool) (bool, Pred) {
	return actual, Pred{Taken: actual, Conf: 3}
}

// OnFetch implements Predictor.
func (*Oracle) OnFetch(bool) {}

// Resolve implements Predictor.
func (*Oracle) Resolve(Pred, uint64, bool, bool) {}

// Bimodal is a table of 2-bit saturating counters indexed by PC.
type Bimodal struct {
	ctr  []int8
	mask uint64
}

// NewBimodal returns a bimodal predictor with 2^bits counters.
func NewBimodal(bits uint) *Bimodal {
	return &Bimodal{ctr: make([]int8, 1<<bits), mask: 1<<bits - 1}
}

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64, _ bool) (bool, Pred) {
	c := b.ctr[pc&b.mask]
	t := c >= 0
	return t, Pred{Taken: t, Conf: ctrConf(c, 2)}
}

// OnFetch implements Predictor.
func (b *Bimodal) OnFetch(bool) {}

// Resolve implements Predictor.
func (b *Bimodal) Resolve(_ Pred, pc uint64, actual bool, _ bool) {
	i := pc & b.mask
	b.ctr[i] = ctrUpdate(b.ctr[i], actual, 2)
}

// Gshare XORs the global history with the PC to index a counter table.
type Gshare struct {
	ctr      []int8
	mask     uint64
	hist     uint64
	histBits uint
}

// NewGshare returns a gshare predictor with 2^tableBits counters and
// histBits bits of global history.
func NewGshare(tableBits, histBits uint) *Gshare {
	return &Gshare{
		ctr:      make([]int8, 1<<tableBits),
		mask:     1<<tableBits - 1,
		histBits: histBits,
	}
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc uint64, _ bool) (bool, Pred) {
	idx := (pc ^ (g.hist & (1<<g.histBits - 1))) & g.mask
	c := g.ctr[idx]
	t := c >= 0
	return t, Pred{Taken: t, Hist: g.hist, Conf: ctrConf(c, 2)}
}

// OnFetch implements Predictor.
func (g *Gshare) OnFetch(taken bool) {
	g.hist = g.hist<<1 | b2u(taken)
}

// Resolve implements Predictor.
func (g *Gshare) Resolve(p Pred, pc uint64, actual bool, repairHist bool) {
	idx := (pc ^ (p.Hist & (1<<g.histBits - 1))) & g.mask
	g.ctr[idx] = ctrUpdate(g.ctr[idx], actual, 2)
	if p.Taken != actual && repairHist {
		g.hist = p.Hist<<1 | b2u(actual)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ctrConf maps a saturating counter to a confidence: 1 at either
// saturation point, 0 for the weak middle states.
func ctrConf(ctr int8, bits uint) uint8 {
	if ctr == int8(1<<(bits-1))-1 || ctr == -int8(1<<(bits-1)) {
		return 1
	}
	return 0
}
