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

// Level is anything an upper cache can fetch lines from.
type Level interface {
	// Access requests the line containing addr at time now. write marks
	// stores (for dirty state); prefetch marks prefetcher-initiated
	// fills (accounted separately, and not propagated recursively as
	// demand). It returns the cycle at which the line is available.
	Access(addr uint64, now int64, write, prefetch bool) int64
}

// Config describes one cache level. Lines are lineBytes long at every
// level.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	HitLatency int // cycles from access to data for a hit
	MSHRs      int // max outstanding misses; 0 = unlimited
	// ExtraLatency is added to every access that reaches this level
	// (NUCA/mesh hop latency for a shared LLC).
	ExtraLatency int
	// NextLinePrefetch fetches line+1 on every demand miss.
	NextLinePrefetch bool
	// StridePrefetch enables a PC-indexed stride prefetcher trained on
	// demand accesses to this level; it runs strideDegree strides ahead.
	StridePrefetch bool
}

const (
	// lineShift is log2 of lineBytes, the line size of every level.
	lineShift = 6
	lineBytes = 1 << lineShift
	// strideDegree is how many strides ahead the stride prefetcher runs.
	strideDegree = 2
)

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
	next    Level
	clock   uint64
	stats   Stats

	// MSHR occupancy: completion times of outstanding misses, as a binary
	// min-heap — mshrDelay only ever consumes the earliest completion, so
	// expired entries are dropped lazily from the top instead of filtering
	// the whole slice on every miss.
	mshr minHeap

	// Stride prefetcher state: one entry per code index (the pc
	// AccessPC is given), grown on demand, and strideLen entries in use.
	stride    []strideEntry
	strideLen int
}

type strideEntry struct {
	lastAddr uint64
	stride   int64
	conf     int8
	valid    bool
}

// strideCap is how many PCs the stride table tracks before it is cleared.
const strideCap = 1024

// New returns a cache level backed by next, with exactly
// SizeBytes / (lineBytes × Ways) sets (at least one).
func New(cfg Config, next Level) *Cache {
	numSets := max(cfg.SizeBytes/(lineBytes*cfg.Ways), 1)
	c := &Cache{
		cfg:     cfg,
		sets:    make([][]line, numSets),
		numSets: uint64(numSets),
		next:    next,
	}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	return c
}

// Stats returns a copy of the level's counters.
func (c *Cache) Stats() Stats { return c.stats }

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setIndex(addr uint64) uint64 { return (addr >> lineShift) % c.numSets }
func (c *Cache) tagOf(addr uint64) uint64    { return addr >> lineShift }

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
		c.Access(addr+lineBytes, now, false, true)
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
			c.next.Access(set[victim].tag<<lineShift, readyAt, true, true)
		}
	}
	c.clock++
	set[victim] = line{valid: true, tag: tag, dirty: dirty, lru: c.clock, readyAt: readyAt}
}

// AccessPC is Access plus stride-prefetcher training keyed by the load's
// PC, its code index. Cores use this entry point for demand data
// accesses. The stride table is cleared when a new PC arrives while it
// tracks more than strideCap.
func (c *Cache) AccessPC(addr uint64, pc uint64, now int64, write bool) int64 {
	done := c.Access(addr, now, write, false)
	if !c.cfg.StridePrefetch {
		return done
	}
	if pc >= uint64(len(c.stride)) {
		c.stride = append(c.stride, make([]strideEntry, pc+1-uint64(len(c.stride)))...)
	}
	e := &c.stride[pc]
	if !e.valid {
		if c.strideLen > strideCap {
			clear(c.stride)
			c.strideLen = 0
		}
		*e = strideEntry{lastAddr: addr, valid: true}
		c.strideLen++
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
		for k := 1; k <= strideDegree; k++ {
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
