// Package cache models a multi-level cache hierarchy: set-associative
// write-back caches with LRU replacement, MSHR-limited outstanding misses,
// optional next-line and stride prefetchers, and a DRAM backend with fixed
// latency plus a shared-bandwidth token bucket.
//
// Timing style: an access is resolved immediately into the cycle at which
// its data is available; in-flight fills are modeled by a per-line readyAt
// timestamp, so overlapping accesses to the same line see the remaining
// fill latency rather than a fresh miss. This latency-composition style is
// the standard approach for Sniper-class simulators.
package cache

import "fmt"

// Level is anything an upper cache can fetch lines from.
type Level interface {
	// Access requests the line containing addr at time now. write marks
	// stores (for dirty state); prefetch marks prefetcher-initiated
	// fills (accounted separately, and not propagated recursively as
	// demand). It returns the cycle at which the line is available.
	Access(addr uint64, now int64, write, prefetch bool) int64
}

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	LineBytes  int
	HitLatency int // cycles from access to data for a hit
	MSHRs      int // max outstanding misses; 0 = unlimited
	// ExtraLatency is added to every access that reaches this level
	// (NUCA/mesh hop latency for a shared LLC).
	ExtraLatency int
	// NextLinePrefetch fetches line+1 on every demand miss.
	NextLinePrefetch bool
	// StridePrefetch enables a PC-indexed stride prefetcher trained on
	// demand accesses to this level.
	StridePrefetch bool
	// StrideDegree is how many strides ahead the stride prefetcher
	// runs (default 2).
	StrideDegree int
}

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Prefetches uint64
	Writebacks uint64
}

// MissRate returns misses/accesses, or 0 for an idle cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	valid   bool
	tag     uint64
	dirty   bool
	lru     uint64
	readyAt int64
}

// Cache is one set-associative cache level.
type Cache struct {
	cfg     Config
	sets    []([]line)
	numSets uint64
	shift   uint
	next    Level
	clock   uint64
	stats   Stats

	// MSHR occupancy: completion times of outstanding misses, as a binary
	// min-heap — mshrDelay only ever consumes the earliest completion, so
	// expired entries are dropped lazily from the top instead of filtering
	// the whole slice on every miss.
	mshr minHeap

	// Stride prefetcher state.
	stride map[uint64]*strideEntry
}

type strideEntry struct {
	lastAddr uint64
	stride   int64
	conf     int8
}

// withDefaults fills in the defaulted geometry and prefetch fields.
func (cfg Config) withDefaults() Config {
	if cfg.LineBytes == 0 {
		cfg.LineBytes = 64
	}
	if cfg.Ways <= 0 {
		cfg.Ways = 8
	}
	if cfg.StrideDegree == 0 {
		cfg.StrideDegree = 2
	}
	return cfg
}

// Validate reports a geometry New cannot model exactly: a set count
// (size / (line × ways)) that is not a power of two, which New rounds
// down to a smaller cache than configured.
func (cfg Config) Validate() error {
	cfg = cfg.withDefaults()
	if n := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways); n < 1 || n&(n-1) != 0 {
		return fmt.Errorf("cache %s: %d sets is not a power of two", cfg.Name, n)
	}
	return nil
}

// New returns a cache level backed by next.
func New(cfg Config, next Level) *Cache {
	cfg = cfg.withDefaults()
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if numSets < 1 {
		numSets = 1
	}
	// Force power-of-two sets for cheap indexing.
	for numSets&(numSets-1) != 0 {
		numSets--
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	c := &Cache{
		cfg:     cfg,
		sets:    make([][]line, numSets),
		numSets: uint64(numSets),
		shift:   shift,
		next:    next,
	}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	if cfg.StridePrefetch {
		c.stride = make(map[uint64]*strideEntry)
	}
	return c
}

// Stats returns a copy of the level's counters.
func (c *Cache) Stats() Stats { return c.stats }

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setIndex(addr uint64) uint64 { return (addr >> c.shift) % c.numSets }
func (c *Cache) tagOf(addr uint64) uint64    { return addr >> c.shift }

// lookup returns the way holding addr's line, or -1.
func (c *Cache) lookup(set []line, tag uint64) int {
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return i
		}
	}
	return -1
}

// mshrDelay models MSHR occupancy: if all MSHRs hold outstanding misses at
// time now, the new miss waits for the earliest to complete.
func (c *Cache) mshrDelay(now int64) int64 {
	if c.cfg.MSHRs <= 0 {
		return now
	}
	// Drop completed entries.
	for len(c.mshr) > 0 && c.mshr[0] <= now {
		c.mshr.pop()
	}
	if len(c.mshr) < c.cfg.MSHRs {
		return now
	}
	// Full: the new miss takes over the earliest-completing entry's slot.
	return c.mshr.pop()
}

// minHeap is a binary min-heap of completion times.
type minHeap []int64

func (h *minHeap) push(v int64) {
	*h = append(*h, v)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if s[i] <= s[j] {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *minHeap) pop() int64 {
	s := *h
	n := len(s) - 1
	v := s[0]
	s[0] = s[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if k := j + 1; k < n && s[k] < s[j] {
			j = k
		}
		if s[i] <= s[j] {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return v
}

func (c *Cache) trackMiss(doneAt int64) {
	if c.cfg.MSHRs > 0 {
		c.mshr.push(doneAt)
	}
}

// Access implements Level.
func (c *Cache) Access(addr uint64, now int64, write, prefetch bool) int64 {
	now += int64(c.cfg.ExtraLatency)
	tag := c.tagOf(addr)
	set := c.sets[c.setIndex(addr)]
	c.clock++
	if !prefetch {
		c.stats.Accesses++
	}

	if w := c.lookup(set, tag); w >= 0 {
		ln := &set[w]
		ln.lru = c.clock
		if write {
			ln.dirty = true
		}
		start := now
		if ln.readyAt > start {
			start = ln.readyAt // fill still in flight
		}
		if !prefetch && c.cfg.StridePrefetch {
			// Training happens at the caller via AccessPC; plain
			// Access does not train.
			_ = start
		}
		return start + int64(c.cfg.HitLatency)
	}

	// Miss.
	if !prefetch {
		c.stats.Misses++
	} else {
		c.stats.Prefetches++
	}
	start := c.mshrDelay(now)
	fillDone := start + int64(c.cfg.HitLatency)
	if c.next != nil {
		fillDone = c.next.Access(addr, start+int64(c.cfg.HitLatency), false, prefetch)
	}
	c.install(addr, fillDone, write)
	c.trackMiss(fillDone)

	if c.cfg.NextLinePrefetch && !prefetch {
		c.Access(addr+uint64(c.cfg.LineBytes), now, false, true)
	}
	return fillDone
}

// install places addr's line into its set, evicting LRU.
func (c *Cache) install(addr uint64, readyAt int64, dirty bool) {
	tag := c.tagOf(addr)
	set := c.sets[c.setIndex(addr)]
	if w := c.lookup(set, tag); w >= 0 {
		// Raced install (e.g. prefetch after demand): keep earliest.
		if set[w].readyAt > readyAt {
			set[w].readyAt = readyAt
		}
		set[w].dirty = set[w].dirty || dirty
		return
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		c.stats.Writebacks++
		if c.next != nil {
			// Writebacks consume downstream bandwidth but are off
			// the load's critical path.
			c.next.Access(set[victim].tag<<c.shift, readyAt, true, true)
		}
	}
	c.clock++
	set[victim] = line{valid: true, tag: tag, dirty: dirty, lru: c.clock, readyAt: readyAt}
}

// AccessPC is Access plus stride-prefetcher training keyed by the load's
// PC. Cores use this entry point for demand data accesses.
func (c *Cache) AccessPC(addr uint64, pc uint64, now int64, write bool) int64 {
	done := c.Access(addr, now, write, false)
	if c.stride == nil {
		return done
	}
	e := c.stride[pc]
	if e == nil {
		if len(c.stride) > 1024 {
			clear(c.stride)
		}
		c.stride[pc] = &strideEntry{lastAddr: addr}
		return done
	}
	d := int64(addr) - int64(e.lastAddr)
	if d == e.stride && d != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = d
		if e.conf > 0 {
			e.conf--
		}
	}
	e.lastAddr = addr
	if e.conf >= 2 && e.stride != 0 {
		for k := 1; k <= c.cfg.StrideDegree; k++ {
			pa := uint64(int64(addr) + e.stride*int64(k+1))
			c.Access(pa, now, false, true)
		}
	}
	return done
}

// Contains reports whether addr's line is present (test helper).
func (c *Cache) Contains(addr uint64) bool {
	return c.lookup(c.sets[c.setIndex(addr)], c.tagOf(addr)) >= 0
}
