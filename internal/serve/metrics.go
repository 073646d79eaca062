package serve

import (
	"math"
	"sort"
	"sync"
	"time"

	blp "repro"
	"repro/internal/store"
)

// latencyWindow is how many recent request latencies the percentile
// estimator retains. Like the flight recorder's event ring, it is a
// bounded window: a server that has handled millions of requests still
// spends O(window) memory and reports percentiles over the recent past,
// which is what an operator watching a live service wants.
const latencyWindow = 1024

// serverMetrics is the per-server stats struct behind GET /metrics.
// Unlike the flight recorder it has many writers (one per request), so
// it trades the single-writer ring discipline for a plain mutex — HTTP
// request rates are nowhere near simulator event rates.
type serverMetrics struct {
	start time.Time

	mu       sync.Mutex
	requests map[string]int64 // per route, terminal status classes included
	rejected int64            // 429s from the admission queue
	timeouts int64            // runs that hit the per-request timeout
	errors   int64            // 5xx responses
	inFlight int64            // requests currently inside a handler

	lat  [latencyWindow]float64 // milliseconds, ring
	latN int64                  // total observations ever
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{start: time.Now(), requests: make(map[string]int64)}
}

func (m *serverMetrics) requestStart(route string) {
	m.mu.Lock()
	m.requests[route]++
	m.inFlight++
	m.mu.Unlock()
}

func (m *serverMetrics) requestEnd(elapsed time.Duration) {
	ms := float64(elapsed.Microseconds()) / 1000
	m.mu.Lock()
	m.inFlight--
	m.lat[m.latN%latencyWindow] = ms
	m.latN++
	m.mu.Unlock()
}

func (m *serverMetrics) addRejected() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

func (m *serverMetrics) addTimeout() {
	m.mu.Lock()
	m.timeouts++
	m.mu.Unlock()
}

func (m *serverMetrics) addError() {
	m.mu.Lock()
	m.errors++
	m.mu.Unlock()
}

// LatencyMetrics summarizes the recent-request latency window.
type LatencyMetrics struct {
	Count int64      `json:"count"` // observations ever, not window size
	P50MS blp.Metric `json:"p50_ms"`
	P90MS blp.Metric `json:"p90_ms"`
	P99MS blp.Metric `json:"p99_ms"`
	MaxMS blp.Metric `json:"max_ms"` // max over the window
}

// MetricsSnapshot answers GET /metrics: request counters, the admission
// queue, the Runner's simulation and cache counters, and recent-latency
// percentiles. The counter sections are the types that count them —
// blp.RunnerStats, blp.CacheStats and store.Stats — rendered through
// their own JSON names, so a counter is defined once. The singleflight
// story is directly legible here: cache.joined counts requests that
// attached to an identical in-flight simulation, cache.hits the ones
// served from the resident LRU.
type MetricsSnapshot struct {
	SchemaVersion    int              `json:"schema_version"`
	UptimeSeconds    float64          `json:"uptime_seconds"`
	Draining         bool             `json:"draining"`
	Requests         map[string]int64 `json:"requests"`
	Rejected         int64            `json:"rejected"` // 429 backpressure
	Timeouts         int64            `json:"timeouts"`
	Errors           int64            `json:"errors"`
	InFlightRequests int64            `json:"in_flight_requests"`
	QueueDepth       int64            `json:"queue_depth"` // waiting for admission
	QueueCapacity    int64            `json:"queue_capacity"`
	Sims             blp.RunnerStats  `json:"sims"`
	Cache            blp.CacheStats   `json:"cache"`
	// Store is the durable second level (null when the server runs
	// without one): hits are memo misses answered from disk without
	// simulating (the warm-start path), invalidated counts stale-version
	// or corrupt objects dropped instead of served. BehaviorVersion is
	// the stamp its objects are keyed under — it changes exactly when
	// the simulator's numbers do.
	Store           *store.Stats   `json:"store"`
	BehaviorVersion string         `json:"behavior_version"`
	Latency         LatencyMetrics `json:"latency"`
}

// snapshot assembles the exported metrics view.
func (m *serverMetrics) snapshot(runner *blp.Runner, q *queue, draining bool) MetricsSnapshot {
	m.mu.Lock()
	reqs := make(map[string]int64, len(m.requests))
	for k, v := range m.requests {
		reqs[k] = v
	}
	snap := MetricsSnapshot{
		SchemaVersion:    SchemaVersion,
		UptimeSeconds:    time.Since(m.start).Seconds(),
		Draining:         draining,
		Requests:         reqs,
		Rejected:         m.rejected,
		Timeouts:         m.timeouts,
		Errors:           m.errors,
		InFlightRequests: m.inFlight,
		Latency:          latencyLocked(&m.lat, m.latN),
	}
	m.mu.Unlock()

	snap.Sims = runner.Stats()
	snap.Cache = runner.CacheStats()
	snap.BehaviorVersion = blp.BehaviorVersion()
	if st := runner.Store(); st != nil {
		ss := st.Stats()
		snap.Store = &ss
	}
	if q != nil {
		snap.QueueDepth = q.depth()
		snap.QueueCapacity = int64(q.maxWait)
	}
	return snap
}

// latencyLocked computes percentiles over the retained window; caller
// holds the metrics mutex.
func latencyLocked(ring *[latencyWindow]float64, n int64) LatencyMetrics {
	lm := LatencyMetrics{Count: n, P50MS: nan(), P90MS: nan(), P99MS: nan(), MaxMS: nan()}
	w := int(n)
	if w > latencyWindow {
		w = latencyWindow
	}
	if w == 0 {
		return lm
	}
	xs := make([]float64, w)
	copy(xs, ring[:w])
	sort.Float64s(xs)
	pick := func(p float64) blp.Metric {
		i := int(p * float64(w-1))
		return blp.Metric(xs[i])
	}
	lm.P50MS = pick(0.50)
	lm.P90MS = pick(0.90)
	lm.P99MS = pick(0.99)
	lm.MaxMS = blp.Metric(xs[w-1])
	return lm
}

func nan() blp.Metric { return blp.Metric(math.NaN()) }
