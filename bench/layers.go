package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"runtime"
	"time"

	blp "repro"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/uncore"
)

// layerInput is one single-thread program with its initial memory image,
// the unit every layer driver runs over.
type layerInput struct {
	name string
	prog *isa.Program
	mem  []byte
}

// driverOut accumulates the layer drivers' work and host time.
type driverOut struct {
	emuInsts           uint64
	emuSec             float64
	traceInsts         uint64
	captureSec         float64
	replaySec          float64
	traceBytes         int
	encodeSec          float64
	decodeSec          float64
	branches           int
	bpredSec           float64
	accesses           int
	cacheSec           float64
	l1dAccess, l1dMiss uint64
	llcAccess, llcMiss uint64
	putMS, getMS       []float64
	storeWrites        int64
	storeBytes         int64
}

// timed runs fn inside a span and returns its host seconds.
func timed(tr *tracer, parent int64, name string, fn func() error) (float64, error) {
	_, end := tr.begin(name, parent, 0, 0)
	defer end()
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}

// runDrivers runs every layer driver over the inputs, then replays the
// workload's result payloads into a fresh store.
func runDrivers(cfg config, in []layerInput, payloads [][]byte, tr *tracer, parent int64) (*driverOut, error) {
	d := &driverOut{}
	for _, x := range in {
		if err := d.run(x, tr, parent); err != nil {
			return nil, fmt.Errorf("layer drivers on %s: %w", x.name, err)
		}
	}
	if err := d.store(cfg, payloads, tr, parent); err != nil {
		return nil, fmt.Errorf("store driver: %w", err)
	}
	return d, nil
}

type branchRec struct {
	pc    uint64
	taken bool
}

type accessRec struct {
	addr, pc uint64
	write    bool
}

func (d *driverOut) run(x layerInput, tr *tracer, parent int64) error {
	clone := func() []byte { return append([]byte(nil), x.mem...) }

	var n uint64
	sec, err := timed(tr, parent, "emu.Run "+x.name, func() (err error) {
		n, err = emu.New(x.prog, clone()).Run(0)
		return err
	})
	if err != nil {
		return err
	}
	d.emuInsts += n
	d.emuSec += sec

	var t *trace.Trace
	sec, err = timed(tr, parent, "trace.Capture "+x.name, func() (err error) {
		t, err = trace.Capture(context.Background(), x.prog, clone())
		return err
	})
	if err != nil {
		return err
	}
	d.captureSec += sec
	d.traceInsts += uint64(t.Len())

	var data []byte
	sec, err = timed(tr, parent, "trace.MarshalBinary "+x.name, func() (err error) {
		data, err = t.MarshalBinary()
		return err
	})
	if err != nil {
		return err
	}
	d.encodeSec += sec
	d.traceBytes += len(data)
	var back *trace.Trace
	sec, err = timed(tr, parent, "trace.Decode "+x.name, func() (err error) {
		back, err = trace.Decode(data)
		return err
	})
	if err != nil {
		return err
	}
	if back.ID() != t.ID() {
		return fmt.Errorf("decoded trace %s differs from captured %s", back.ID(), t.ID())
	}
	d.decodeSec += sec

	var branches []branchRec
	var accesses []accessRec
	sec, err = timed(tr, parent, "trace.Replay "+x.name, func() error {
		rp, err := trace.NewReplay(t, x.prog, clone())
		if err != nil {
			return err
		}
		for !rp.Done() {
			if _, err := rp.Step(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	d.replaySec += sec
	// The committed branch and memory streams, outside any timed span.
	rp, err := trace.NewReplay(t, x.prog, clone())
	if err != nil {
		return err
	}
	for !rp.Done() {
		di, err := rp.Step()
		if err != nil {
			return err
		}
		op := di.Inst.Op
		if op.IsBranch() {
			branches = append(branches, branchRec{uint64(di.PC), di.Taken})
		}
		if op.IsMem() {
			accesses = append(accesses, accessRec{di.Addr, uint64(di.PC), op.IsStore() || op.IsAtomic()})
		}
	}

	sec, _ = timed(tr, parent, "bpred.TAGE "+x.name, func() error {
		p := bpred.NewTAGE()
		for _, b := range branches {
			pred, tok := p.Predict(b.pc, b.taken)
			p.OnFetch(pred)
			p.Resolve(tok, b.pc, b.taken, pred != b.taken)
		}
		return nil
	})
	d.bpredSec += sec
	d.branches += len(branches)

	var h *cache.Hierarchy
	sec, _ = timed(tr, parent, "cache.Hierarchy.Data "+x.name, func() error {
		h = newHierarchy()
		var now int64
		for _, a := range accesses {
			now = max(now+1, h.Data(a.addr, a.pc, now, a.write))
		}
		return nil
	})
	d.cacheSec += sec
	d.accesses += len(accesses)
	l1, llc := h.L1D.Stats(), h.LLC.Stats()
	d.l1dAccess += l1.Accesses
	d.l1dMiss += l1.Misses
	d.llcAccess += llc.Accesses
	d.llcMiss += llc.Misses
	return nil
}

// newHierarchy builds one core's cache hierarchy over its uncore exactly
// as the sim driver does for the default (scaled) memory configuration.
func newHierarchy() *cache.Hierarchy {
	mc := sim.ScaledMemConfig(1)
	llc, dram := uncore.Build(mc.Uncore)
	return cache.NewHierarchy(cache.HierConfig{
		L1I: cache.Config{Name: "l1i", SizeBytes: mc.L1ISize, Ways: mc.L1IWays,
			HitLatency: mc.L1ILatency, MSHRs: mc.MSHRs},
		L1D: cache.Config{Name: "l1d", SizeBytes: mc.L1DSize, Ways: mc.L1DWays,
			HitLatency: mc.L1DLatency, MSHRs: mc.MSHRs, StridePrefetch: mc.StridePrefetch},
		L2: cache.Config{Name: "l2", SizeBytes: mc.L2Size, Ways: mc.L2Ways,
			HitLatency: mc.L2Latency, MSHRs: 2 * mc.MSHRs, NextLinePrefetch: mc.NextLinePrefetch},
	}, llc, dram)
}

// store writes every payload into a fresh store, then reads each back.
func (d *driverOut) store(cfg config, payloads [][]byte, tr *tracer, parent int64) error {
	dir, err := scratch(cfg, "store-driver-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, blp.BehaviorVersion(), 0)
	if err != nil {
		return err
	}
	defer st.Close()
	key := func(i int) string { return fmt.Sprintf("bench/%d", i) }
	for i, p := range payloads {
		sec, err := timed(tr, parent, "store.Put", func() error { return st.Put(key(i), p) })
		if err != nil {
			return err
		}
		d.putMS = append(d.putMS, 1000*sec)
	}
	for i, p := range payloads {
		var got []byte
		var ok bool
		sec, _ := timed(tr, parent, "store.Get", func() error { got, ok = st.Get(key(i)); return nil })
		if !ok || string(got) != string(p) {
			return fmt.Errorf("object %d did not read back", i)
		}
		d.getMS = append(d.getMS, 1000*sec)
	}
	s := st.Stats()
	d.storeWrites, d.storeBytes = s.Writes, s.Bytes
	return nil
}

// payloadsOf returns the result payloads the store driver replays: the
// serve responses' result JSON, or the workload's results encoded alike.
func payloadsOf(m *measurement) [][]byte {
	if m.serve != nil {
		return m.serve.payloads
	}
	var out [][]byte
	for _, r := range m.results {
		if data, err := json.Marshal(r); err == nil {
			out = append(out, data)
		}
	}
	return out
}

// cpuLayers are the layers reported with a cpu_share.
var cpuLayers = []string{"emu", "trace", "bpred", "cache", "core", "sim", "blp", "memo", "store", "serve", "runtime", "bench"}

// layerValues assembles the per-layer metrics of a traced run.
func layerValues(m *measurement, d *driverOut, shares map[string]float64, rt runtimeDelta) map[string]float64 {
	v := map[string]float64{
		"emu.ns_per_inst":           1e9 * ratio(d.emuSec, float64(d.emuInsts)),
		"trace.capture_ns_per_inst": 1e9 * ratio(d.captureSec, float64(d.traceInsts)),
		"trace.replay_ns_per_inst":  1e9 * ratio(d.replaySec, float64(d.traceInsts)),
		"trace.bytes_per_inst":      ratio(float64(d.traceBytes), float64(d.traceInsts)),
		"trace.encode_mb_s":         ratio(float64(d.traceBytes)/1e6, d.encodeSec),
		"trace.decode_mb_s":         ratio(float64(d.traceBytes)/1e6, d.decodeSec),
		"bpred.ns_per_branch":       1e9 * ratio(d.bpredSec, float64(d.branches)),
		"cache.ns_per_access":       1e9 * ratio(d.cacheSec, float64(d.accesses)),
		"cache.l1d_miss_ratio":      ratio(float64(d.l1dMiss), float64(d.l1dAccess)),
		"cache.llc_miss_ratio":      ratio(float64(d.llcMiss), float64(d.llcAccess)),
		"store.put_ms_p50":          median(d.putMS),
		"store.get_ms_p50":          median(d.getMS),
		"store.writes":              float64(d.storeWrites),
		"store.bytes":               float64(d.storeBytes),
		"sim.ns_per_cycle":          1e9 * ratio(m.simHostSeconds, float64(m.simCycles)),
		"runtime.gc_cpu_share":      ratio(rt.gcCPU, rt.totalCPU-rt.idleCPU),
		"runtime.allocs_per_kinst":  ratio(float64(rt.allocs), float64(m.insts)/1000),
		"runtime.cpu_util":          ratio(rt.osCPU, rt.wall*float64(runtime.NumCPU())),
	}
	for _, l := range cpuLayers {
		v[l+".cpu_share"] = shares[l]
	}
	maps.Copy(v, simulatedCounts(m.results))
	if st := m.runner; st != nil {
		v["blp.simulated"] = float64(st.Simulated)
		v["blp.cached"] = float64(st.Cached)
		v["blp.captured"] = float64(st.Captured)
		v["blp.replayed"] = float64(st.Replayed)
		v["blp.batched"] = float64(st.Batched)
		forks := st.SegHits + st.SegMisses + st.SegInvalidated + st.SegBypassed
		v["trace.seg_hit_ratio"] = ratio(float64(st.SegHits), float64(forks))
	}
	if cs := m.cache; cs != nil {
		v["memo.hit_ratio"] = ratio(float64(cs.Hits+cs.Joined), float64(cs.Hits+cs.Joined+cs.Misses))
	}
	if ss := m.serve; ss != nil {
		maps.Copy(v, ss.layerValues())
	}
	return v
}

// simulatedCounts are the per-layer metrics read from simulated
// statistics: functions of the results alone, so tracing cannot move them.
func simulatedCounts(results []*blp.Result) map[string]float64 {
	var s core.Stats
	for _, r := range results {
		s.Add(&r.Stats)
	}
	return map[string]float64{
		"bpred.mpki":                 s.MPKI(),
		"core.useful_dispatch_ratio": ratio(float64(s.Committed), float64(s.DispCorrect+s.DispWrong+s.DispOverhead)),
		"core.squashed_per_kinst":    1000 * ratio(float64(s.UopsSquashed), float64(s.Committed)),
	}
}
