package main

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/store"
)

// summarizeLedger reads a durable store's experiment ledger back (see
// store.ReadLedger) and writes the campaign trajectory to w: every
// computation the store's history records, grouped by behavior version
// and benchmark, with the wall clock actually spent simulating. Unlike
// the object store the ledger is never evicted or invalidated, so this is
// the full history — including work whose results a version bump has
// since retired.
func summarizeLedger(w io.Writer, path string) error {
	entries, err := store.ReadLedger(path)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		_, err := fmt.Fprintln(w, "ledger is empty")
		return err
	}
	type agg struct {
		results, traces int
		cycles          int64
		wall            float64
	}
	versions := []string{} // first-seen order: the campaign's version trajectory
	byVer := map[string]map[string]*agg{}
	var totalWall float64
	for _, e := range entries {
		bv := byVer[e.Version]
		if bv == nil {
			bv = map[string]*agg{}
			byVer[e.Version] = bv
			versions = append(versions, e.Version)
		}
		a := bv[e.Benchmark]
		if a == nil {
			a = &agg{}
			bv[e.Benchmark] = a
		}
		switch e.Kind {
		case "trace":
			a.traces++
		default:
			a.results++
			a.cycles += e.Cycles
		}
		a.wall += e.WallSeconds
		totalWall += e.WallSeconds
	}
	first, last := entries[0].Time, entries[len(entries)-1].Time
	fmt.Fprintf(w, "ledger: %d entries, %s .. %s, %.1fs simulator wall clock\n",
		len(entries), first, last, totalWall)
	for _, v := range versions {
		fmt.Fprintf(w, "behavior %s:\n", v)
		names := make([]string, 0, len(byVer[v]))
		for b := range byVer[v] {
			names = append(names, b)
		}
		sort.Strings(names)
		for _, b := range names {
			a := byVer[v][b]
			fmt.Fprintf(w, "  %-12s %4d results  %3d traces  %14d cycles  %8.2fs\n",
				b, a.results, a.traces, a.cycles, a.wall)
		}
	}
	return nil
}
