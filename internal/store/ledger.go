package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// LedgerEntry is one line of the append-only experiment ledger: a record
// that a simulation was completed (not served from any cache) at a point
// in time, under a given behavior version. The ledger is the durable
// trajectory of the experiment campaign — unlike the object store it is
// never evicted or invalidated, so `sfserved -ledger` can read the
// full history back even across behavior-version bumps.
type LedgerEntry struct {
	// Time is the completion time, RFC3339 UTC.
	Time string `json:"time"`
	// Kind classifies the record: "result" for a simulation. Ledgers
	// written by older versions also hold "trace" records, one per
	// functional trace capture.
	Kind string `json:"kind"`
	// Key is the canonical identity of the computation (Options.Key).
	Key string `json:"key"`
	// Version is the behavior stamp the computation ran under.
	Version string `json:"version"`

	Benchmark string `json:"benchmark,omitempty"`
	Mode      string `json:"mode,omitempty"`
	// Cycles and IPC summarize a result record.
	Cycles int64   `json:"cycles,omitempty"`
	IPC    float64 `json:"ipc,omitempty"`
	// WallSeconds is the host time the computation took.
	WallSeconds float64 `json:"wall_seconds"`
}

// AppendLedger appends one entry to the ledger as a single NDJSON line.
// Entries with no Time are stamped now. Append is atomic at the line
// level (one O_APPEND write per entry).
func (s *Store) AppendLedger(e LedgerEntry) error {
	if e.Time == "" {
		e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	if e.Version == "" {
		e.Version = s.version
	}
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: ledger: %w", err)
	}
	data = append(data, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ledger == nil {
		return fmt.Errorf("store: ledger closed")
	}
	_, err = s.ledger.Write(data)
	return err
}

// LedgerPath returns the ledger file inside a store directory.
func LedgerPath(dir string) string { return filepath.Join(dir, "ledger.ndjson") }

// ReadLedger reads a ledger file (a path to either the NDJSON file
// itself or a store directory containing one) back into entries, in
// append order. Unparseable lines — for instance the torn tail of a
// crashed process — are skipped rather than failing the read: the
// ledger is history, and most of it being readable beats none.
func ReadLedger(path string) ([]LedgerEntry, error) {
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		path = LedgerPath(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []LedgerEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e LedgerEntry
		if err := json.Unmarshal(line, &e); err != nil {
			continue
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
