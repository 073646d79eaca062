// Package memo provides the byte-budgeted cache with singleflight
// deduplication that holds blp.Runner's results (and so the serve
// layer's) and the kernels' generated graphs.
//
// A Cache maps string keys to values computed at most once at a time:
// the first requester of a key runs the compute function while every
// concurrent duplicate blocks on the same call and shares its outcome
// (singleflight). Successful results are retained in one LRU under one
// mutex whose total byte footprint — as measured by a caller-supplied
// cost function — never exceeds the configured budget; the least
// recently used entries are evicted first. Errors are never cached: a
// failed or canceled computation is retried by the next requester, so a
// transient cancellation cannot poison the cache.
package memo

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of a Cache's activity counters. The
// JSON names are the cache section of the serve layer's /metrics.
type Stats struct {
	// Hits counts requests answered by a completed, still-resident entry.
	Hits int64 `json:"hits"`
	// Joined counts requests that attached to an in-flight computation
	// of the same key (the singleflight path) and shared its successful
	// result. A waiter canceled mid-join, or a shared computation that
	// errored, is not counted: Hits+Joined is exactly the number of
	// successfully shared results, so callers that count shares (e.g.
	// blp.RunnerStats.Cached) can reconcile against it.
	Joined int64 `json:"joined"`
	// Misses counts requests that had to run the compute function.
	Misses int64 `json:"misses"`
	// Evictions counts entries removed to keep the cache under budget.
	Evictions int64 `json:"evictions"`
	// Entries and Bytes describe the resident set right now.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Budget is the configured total byte budget (0 = unbounded).
	Budget int64 `json:"budget"`
}

// Cache is an LRU keyed by strings. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type Cache[V any] struct {
	cost   func(key string, v V) int64
	budget int64 // 0 = unbounded

	mu       sync.Mutex
	done     map[string]*list.Element // completed entries, element.Value = *entry[V]
	inflight map[string]*call[V]
	lru      list.List // front = most recently used
	bytes    int64

	hits, joined, misses, evictions atomic.Int64
}

type entry[V any] struct {
	key  string
	val  V
	cost int64
}

// call is one singleflight cell: the first requester computes and closes
// done; duplicates wait on done and share val/err.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a Cache with the given total byte budget (<= 0 means
// unbounded) and per-entry cost function (nil counts every entry as 1
// byte). The cache always retains its most recent entry, so a single
// entry larger than the budget is cached alone rather than rejected.
func New[V any](budgetBytes int64, cost func(key string, v V) int64) *Cache[V] {
	if cost == nil {
		cost = func(string, V) int64 { return 1 }
	}
	return &Cache[V]{
		cost:     cost,
		budget:   max(budgetBytes, 0),
		done:     make(map[string]*list.Element),
		inflight: make(map[string]*call[V]),
	}
}

// Do returns the cached value for key, or computes it with fn. Exactly
// one computation per key runs at a time: concurrent duplicates block
// until it finishes and share its result (shared=true for them, and for
// any request answered by a resident entry). A waiting duplicate whose
// own ctx is canceled stops waiting and returns ctx.Err(); the
// computation itself keeps running for the other waiters. fn's error is
// returned to every waiter but never cached.
//
// If fn panics, the panic is converted into an error delivered to every
// waiter and then re-raised in the first caller, so duplicates are never
// stranded.
func (c *Cache[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, err error, shared bool) {
	c.mu.Lock()
	if el, ok := c.done[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*entry[V])
		c.mu.Unlock()
		c.hits.Add(1)
		return e.val, nil, true
	}
	if cl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-cl.done:
			// Only a successful share counts as joined; an error is
			// delivered to the waiter but is not a shared result.
			if cl.err == nil {
				c.joined.Add(1)
			}
			return cl.val, cl.err, true
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err(), true
		}
	}
	cl := &call[V]{done: make(chan struct{})}
	c.inflight[key] = cl
	c.mu.Unlock()
	c.misses.Add(1)

	// Publish the outcome even if fn panics: waiters get an error, the
	// panic is re-raised here.
	finished := false
	defer func() {
		if !finished {
			cl.err = fmt.Errorf("memo: computation for key %q panicked", key)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if cl.err == nil {
			e := &entry[V]{key: key, val: cl.val, cost: c.cost(key, cl.val)}
			c.done[key] = c.lru.PushFront(e)
			c.bytes += e.cost
			c.evictLocked()
		}
		c.mu.Unlock()
		close(cl.done)
	}()
	cl.val, cl.err = fn()
	finished = true
	return cl.val, cl.err, false
}

// evictLocked trims the cache to its budget, evicting from the LRU tail
// but never removing the most recent entry (so a single oversized
// result is cached alone rather than thrashing). Caller holds c.mu.
func (c *Cache[V]) evictLocked() {
	for c.budget > 0 && c.bytes > c.budget && c.lru.Len() > 1 {
		el := c.lru.Back()
		e := el.Value.(*entry[V])
		c.lru.Remove(el)
		delete(c.done, e.key)
		c.bytes -= e.cost
		c.evictions.Add(1)
	}
}

// Stats returns the cache's counters and resident-set size.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	entries, bytes := len(c.done), c.bytes
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Joined:    c.joined.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
		Budget:    c.budget,
	}
}
