package blp

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"repro/internal/store"
)

// storeResultPrefix namespaces result objects in the store. Stores
// written by older versions also hold "traceobj/" objects (captured
// instruction traces); nothing reads them any more, so a budgeted store
// evicts them first as least recently used.
const storeResultPrefix = "result/"

// OpenStore opens (creating if needed) a durable result store rooted at
// dir, stamped with the current BehaviorVersion — the standard way to
// build the store a NewRunnerStore Runner persists through.
// budgetBytes bounds the on-disk object set (<= 0: unbounded).
func OpenStore(dir string, budgetBytes int64) (*store.Store, error) {
	return store.Open(dir, BehaviorVersion(), budgetBytes)
}

// NewRunnerStore is NewRunnerCache with a durable second level: on a
// memo miss the Runner consults st before simulating, every fresh result
// is written through to st (the one write path: a result the in-memory
// LRU later evicts is already on disk), and every fresh computation is
// appended to its experiment ledger. st may be shared by several Runners
// in one process; nil st degrades to NewRunnerCache exactly.
//
// Persistence is an optimization, never a dependency: store I/O errors
// degrade to cache misses and lost write-backs, not failed simulations.
func NewRunnerStore(jobs int, cacheBytes int64, st *store.Store) *Runner {
	r := NewRunnerCache(jobs, cacheBytes)
	r.store = st
	return r
}

// Store returns the Runner's durable store (nil if none is attached).
func (r *Runner) Store() *store.Store { return r.store }

// encodeResult/decodeResult are the persisted form of a Result: gob,
// which round-trips every numeric field bit-exactly — the warm-start
// guarantee is byte-identical results, not approximately-equal ones.
func encodeResult(res *Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		return nil, fmt.Errorf("blp: encoding result: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeResult(data []byte) (*Result, error) {
	res := new(Result)
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(res); err != nil {
		return nil, fmt.Errorf("blp: decoding stored result: %w", err)
	}
	return res, nil
}

// storeLoadResult consults the durable store for a completed result.
// An undecodable payload (possible only if Result's schema changed
// without a resultSchema bump) is deleted so it cannot shadow a
// recomputation forever.
func (r *Runner) storeLoadResult(key string) (*Result, bool) {
	if r.store == nil {
		return nil, false
	}
	data, ok := r.store.Get(storeResultPrefix + key)
	if !ok {
		return nil, false
	}
	res, err := decodeResult(data)
	if err != nil {
		r.store.Delete(storeResultPrefix + key)
		return nil, false
	}
	return res, true
}

// storeSaveResult writes a result through to the durable store;
// failures are dropped (see NewRunnerStore).
func (r *Runner) storeSaveResult(key string, res *Result) {
	if r.store == nil {
		return
	}
	if data, err := encodeResult(res); err == nil {
		r.store.Put(storeResultPrefix+key, data)
	}
}

// ledgerResult appends one fresh simulation to the experiment ledger.
// Only actual computations are recorded — cache and store hits are
// replays of history, not history.
func (r *Runner) ledgerResult(o Options, res *Result, elapsed time.Duration) {
	if r.store == nil {
		return
	}
	n := o.normalized()
	r.store.AppendLedger(store.LedgerEntry{
		Kind:        "result",
		Key:         storeResultPrefix + o.Key(),
		Benchmark:   n.Benchmark,
		Mode:        fmt.Sprintf("%v", n.Mode),
		Cycles:      res.Cycles,
		IPC:         res.IPC,
		WallSeconds: elapsed.Seconds(),
	})
}
