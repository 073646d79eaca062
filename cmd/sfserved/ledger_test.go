package main

import (
	"strings"
	"testing"

	"repro/internal/store"
)

// TestSummarizeLedger writes a ledger spanning two behavior versions,
// one of them with a trace capture, through the store and reads the
// summary back from the store directory.
func TestSummarizeLedger(t *testing.T) {
	dir := t.TempDir()
	appendAll := func(version string, entries ...store.LedgerEntry) {
		s, err := store.Open(dir, version, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := s.AppendLedger(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	appendAll("v1",
		store.LedgerEntry{Time: "2026-01-01T00:00:00Z", Kind: "result", Key: "a",
			Benchmark: "cc", Cycles: 1000, WallSeconds: 1.5},
		store.LedgerEntry{Time: "2026-01-01T00:01:00Z", Kind: "trace", Key: "t",
			Benchmark: "cc", WallSeconds: 0.25},
		store.LedgerEntry{Time: "2026-01-01T00:02:00Z", Kind: "result", Key: "b",
			Benchmark: "bfs", Cycles: 500, WallSeconds: 1})
	appendAll("v2",
		store.LedgerEntry{Time: "2026-01-02T00:00:00Z", Kind: "result", Key: "a",
			Benchmark: "cc", Cycles: 900, WallSeconds: 2})

	var b strings.Builder
	if err := summarizeLedger(&b, dir); err != nil {
		t.Fatal(err)
	}
	want := `ledger: 4 entries, 2026-01-01T00:00:00Z .. 2026-01-02T00:00:00Z, 4.8s simulator wall clock
behavior v1:
  bfs             1 results    0 traces             500 cycles      1.00s
  cc              1 results    1 traces            1000 cycles      1.75s
behavior v2:
  cc              1 results    0 traces             900 cycles      2.00s
`
	if b.String() != want {
		t.Fatalf("summary:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestSummarizeLedgerEmpty(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, "v1", 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	var b strings.Builder
	if err := summarizeLedger(&b, dir); err != nil {
		t.Fatal(err)
	}
	if b.String() != "ledger is empty\n" {
		t.Fatalf("empty ledger summary %q", b.String())
	}
}
