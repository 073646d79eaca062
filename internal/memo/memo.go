// Package memo provides the sharded, byte-budgeted result cache with
// singleflight deduplication that backs blp.Runner and the serve layer.
//
// A Cache maps string keys to values computed at most once at a time:
// the first requester of a key runs the compute function while every
// concurrent duplicate blocks on the same call and shares its outcome
// (singleflight). Successful results are retained in a per-shard LRU
// whose total byte footprint — as measured by a caller-supplied cost
// function — never exceeds the configured budget; the least recently
// used entries are evicted first. Errors are never cached: a failed or
// canceled computation is retried by the next requester, so a transient
// cancellation cannot poison the cache.
//
// Keys are distributed over N shards by hash, so unrelated keys contend
// on different locks; the budget is split evenly across shards.
package memo

import (
	"container/list"
	"context"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of a Cache's activity counters.
type Stats struct {
	// Hits counts requests answered by a completed, still-resident entry.
	Hits int64
	// Joined counts requests that attached to an in-flight computation
	// of the same key (the singleflight path) and shared its successful
	// result. A waiter canceled mid-join, or a shared computation that
	// errored, is not counted: Hits+Joined is exactly the number of
	// successfully shared results, so callers that count shares (e.g.
	// blp.RunnerStats.Cached) can reconcile against it.
	Joined int64
	// Misses counts requests that had to run the compute function.
	Misses int64
	// Evictions counts entries removed to keep a shard under budget.
	Evictions int64
	// Entries and Bytes describe the resident set right now.
	Entries int
	Bytes   int64
	// Budget is the configured total byte budget (0 = unbounded).
	Budget int64
}

// Cache is a sharded LRU keyed by strings. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type Cache[V any] struct {
	seed   maphash.Seed
	shards []shard[V]
	cost   func(key string, v V) int64
	budget int64 // per shard; 0 = unbounded

	onEvict func(key string, v V)

	hits, joined, misses, evictions atomic.Int64
}

type shard[V any] struct {
	mu       sync.Mutex
	done     map[string]*list.Element // completed entries, element.Value = *entry[V]
	inflight map[string]*call[V]
	lru      list.List // front = most recently used
	bytes    int64
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

// New returns a Cache with the given shard count (values < 1 select 1),
// total byte budget (<= 0 means unbounded), and per-entry cost function
// (nil counts every entry as 1 byte). The budget is divided evenly
// across shards; each shard always retains at least its most recent
// entry, so a single entry larger than the per-shard budget is cached
// alone rather than rejected.
func New[V any](shards int, budgetBytes int64, cost func(key string, v V) int64) *Cache[V] {
	if shards < 1 {
		shards = 1
	}
	if cost == nil {
		cost = func(string, V) int64 { return 1 }
	}
	perShard := int64(0)
	if budgetBytes > 0 {
		perShard = budgetBytes / int64(shards)
		if perShard < 1 {
			perShard = 1
		}
	}
	c := &Cache[V]{
		seed:   maphash.MakeSeed(),
		shards: make([]shard[V], shards),
		cost:   cost,
		budget: perShard,
	}
	for i := range c.shards {
		c.shards[i].done = make(map[string]*list.Element)
		c.shards[i].inflight = make(map[string]*call[V])
	}
	return c
}

// OnEvict registers a hook invoked (outside the shard lock) for every
// entry evicted to make room. Call before the cache is in use; it is not
// synchronized with Do.
func (c *Cache[V]) OnEvict(fn func(key string, v V)) { c.onEvict = fn }

func (c *Cache[V]) shardFor(key string) *shard[V] {
	return &c.shards[maphash.String(c.seed, key)%uint64(len(c.shards))]
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
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.done[key]; ok {
		s.lru.MoveToFront(el)
		e := el.Value.(*entry[V])
		s.mu.Unlock()
		c.hits.Add(1)
		return e.val, nil, true
	}
	if cl, ok := s.inflight[key]; ok {
		s.mu.Unlock()
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
	s.inflight[key] = cl
	s.mu.Unlock()
	c.misses.Add(1)

	// Publish the outcome even if fn panics: waiters get an error, the
	// panic is re-raised here.
	finished := false
	defer func() {
		if !finished {
			cl.err = fmt.Errorf("memo: computation for key %q panicked", key)
		}
		var evicted []*entry[V]
		s.mu.Lock()
		delete(s.inflight, key)
		if cl.err == nil {
			e := &entry[V]{key: key, val: cl.val, cost: c.cost(key, cl.val)}
			s.done[key] = s.lru.PushFront(e)
			s.bytes += e.cost
			evicted = s.evictToLocked(c.budget)
		}
		s.mu.Unlock()
		close(cl.done)
		for _, e := range evicted {
			c.evictions.Add(1)
			if c.onEvict != nil {
				c.onEvict(e.key, e.val)
			}
		}
	}()
	cl.val, cl.err = fn()
	finished = true
	return cl.val, cl.err, false
}

// Get returns the resident value for key without computing, touching the
// LRU on hit.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.done[key]
	if !ok {
		var zero V
		return zero, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// evictToLocked trims the shard to the given per-shard budget, evicting
// from the LRU tail but never removing the most recent entry (so a
// single oversized result is cached alone rather than thrashing).
// Caller holds s.mu; returned entries are reported to the eviction hook
// after the lock is released.
func (s *shard[V]) evictToLocked(budget int64) []*entry[V] {
	if budget <= 0 {
		return nil
	}
	var out []*entry[V]
	for s.bytes > budget && s.lru.Len() > 1 {
		el := s.lru.Back()
		e := el.Value.(*entry[V])
		s.lru.Remove(el)
		delete(s.done, e.key)
		s.bytes -= e.cost
		out = append(out, e)
	}
	return out
}

// Stats returns the cache's counters and resident-set size.
func (c *Cache[V]) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Joined:    c.joined.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Budget:    c.budget * int64(len(c.shards)),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.done)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}
