package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"slices"
	"sort"
)

// errVacuous reports a gate whose two sides share no (workload, metric)
// entry: it would pass anything.
var errVacuous = errors.New("no common entries — gate vacuous")

// verdict is the gate's finding for one (workload, metric) entry.
type verdict struct {
	Workload, Metric string
	Base, Head       float64 // medians
	Spread           float64 // the baseline's interquartile range over its median
	Change           float64 // how much worse head is than base, as a share of base (negative: better)
	Status           string  // ok, REGRESSED or unresolved
}

// gate compares the end-to-end metrics of two sets of reports, per
// (workload, metric), using each metric's direction and bound. A head
// median worse than the base median by more than the bound regresses.
// Where the baseline's own spread exceeds the bound the entry is
// unresolved — unless every head run reads better than every base run.
func gate(base, head []record, defs []metricDef) ([]verdict, error) {
	type entry struct{ workload, metric string }
	values := func(recs []record) map[entry][]float64 {
		out := map[entry][]float64{}
		for _, r := range recs {
			if r.Traced {
				continue
			}
			for _, d := range defs {
				if v, ok := r.Metrics[d.Name]; ok {
					e := entry{r.Workload, d.Name}
					out[e] = append(out[e], v.Value)
				}
			}
		}
		return out
	}
	b, h := values(base), values(head)
	var workloads []string
	for e := range b {
		if !slices.Contains(workloads, e.workload) {
			workloads = append(workloads, e.workload)
		}
	}
	sort.Strings(workloads)
	var out []verdict
	for _, d := range defs {
		for _, wl := range workloads {
			e := entry{wl, d.Name}
			bv, hv := b[e], h[e]
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			v := verdict{Workload: wl, Metric: d.Name, Base: median(bv), Head: median(hv), Spread: iqrShare(bv)}
			worse := func(x, y float64) bool { return x > y } // lower is better
			if d.Better == "higher" {
				worse = func(x, y float64) bool { return x < y }
			}
			v.Change = (v.Head - v.Base) / v.Base
			if d.Better == "higher" {
				v.Change = -v.Change
			}
			allBetter := true
			for _, x := range hv {
				for _, y := range bv {
					if !worse(y, x) {
						allBetter = false
					}
				}
			}
			switch {
			case v.Spread > d.Bound && !allBetter:
				v.Status = "unresolved"
			case v.Change > d.Bound:
				v.Status = "REGRESSED"
			default:
				v.Status = "ok"
			}
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return nil, errVacuous
	}
	return out, nil
}

// iqrShare is the distance between the first and third quartiles of xs
// over their median, with quartiles taken as Python's
// statistics.quantiles(xs, n=4) takes them (the "exclusive" method).
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), median(s))
}

// runGate gates the reports in headPath against basePath with the bounds
// BENCHMARK.json fixes, prints one line per entry and returns the exit
// code: 0 when nothing regressed, 1 on a regression, 2 when the gate
// cannot run or is vacuous.
func runGate(basePath, headPath string) int {
	if headPath == "" {
		log.Print("-baseline needs -out: the reports to gate")
		return 2
	}
	defs, err := loadBounds("BENCHMARK.json")
	if err != nil {
		log.Print(err)
		return 2
	}
	base, err := loadRecords(basePath)
	if err != nil {
		log.Print(err)
		return 2
	}
	head, err := loadRecords(headPath)
	if err != nil {
		log.Print(err)
		return 2
	}
	vs, err := gate(base, head, defs)
	if err != nil {
		log.Printf("gate: %v (%s shares no workload and metric with %s)", err, basePath, headPath)
		return 2
	}
	code := 0
	for _, v := range vs {
		log.Printf("gate %-13s %-13s %12.4f vs %12.4f  worse by %+6.1f%%  spread %5.1f%%  %s",
			v.Workload, v.Metric, v.Head, v.Base, 100*v.Change, 100*v.Spread, v.Status)
		if v.Status == "REGRESSED" {
			code = 1
		}
	}
	return code
}

// loadBounds reads the end-to-end metric definitions from BENCHMARK.json.
func loadBounds(path string) ([]metricDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// loadRecords reads reports: either the lines --out appends, or a
// trajectory file such as testdata/BENCH_6.json whose "runs" holds them.
func loadRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var traj struct {
		Runs []record `json:"runs"`
	}
	if json.Unmarshal(data, &traj) == nil && traj.Runs != nil {
		return traj.Runs, nil
	}
	var out []record
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
