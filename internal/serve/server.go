// Package serve exposes the blp simulation harness as a multi-tenant
// HTTP service: simulation-as-a-service on top of the memoized,
// concurrency-bounded blp.Runner.
//
// Endpoints:
//
//	POST /v1/run          one blp.Options → versioned result JSON
//	POST /v1/sweep        batch of options → streamed NDJSON, one line
//	                      per run in completion order
//	GET  /v1/figures/{id} paper figure/table as JSON (blp.Report) or CSV
//	GET  /healthz         liveness (503 while draining)
//	GET  /metrics         counters: requests, cache hits/joins/misses,
//	                      queue depth, in-flight sims, p50/p99 latency
//
// Behind the handlers sit the Runner's sharded byte-budgeted LRU result
// cache and singleflight dedup (identical requests from different HTTP
// clients simulate once), a bounded admission queue with 429
// backpressure, per-request timeouts plumbed as context cancellation
// into the sim driver loop, and graceful drain: Shutdown (or the
// DrainOnSignal helper wired to SIGTERM in cmd/sfserved) stops
// accepting, lets in-flight requests finish, and flushes a final
// metrics snapshot.
package serve

import (
	"context"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"time"

	blp "repro"
	"repro/internal/store"
)

// Config sizes a Server. The zero value is usable: defaults are filled
// in by New.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8344").
	Addr string
	// Jobs bounds concurrent simulations in the shared Runner
	// (<= 0: runtime.NumCPU).
	Jobs int
	// CacheBytes is the Runner's result-cache budget
	// (0: blp.DefaultCacheBudget; negative: unbounded).
	CacheBytes int64
	// MaxConcurrent bounds simulation requests admitted at once
	// (<= 0: 2×Jobs). A sweep counts as one admitted request.
	MaxConcurrent int
	// QueueDepth bounds requests waiting for admission beyond
	// MaxConcurrent; anything more is answered 429 (< 0: 0 — reject as
	// soon as all slots are busy; 0 selects the default 64).
	QueueDepth int
	// RunTimeout bounds each simulation run (not each figure); the
	// deadline propagates as context cancellation into the sim loop.
	// 0 disables.
	RunTimeout time.Duration
	// Store, when non-nil, is the durable result store behind the
	// Runner's in-memory caches (open one with blp.OpenStore): memo
	// misses consult it before simulating, fresh results and traces are
	// written through, and a restarted server warm-starts from it. The
	// caller owns the store's lifecycle (Close it after Shutdown).
	Store *store.Store
	// Logf receives operational log lines (nil: discard).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8344"
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = blp.DefaultCacheBudget
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	} else if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	return c
}

// Server is one simulation service instance. Create with New; it is
// ready to serve via Handler, Serve, or ListenAndServe.
type Server struct {
	cfg      Config
	runner   *blp.Runner
	q        *queue
	metrics  *serverMetrics
	hs       *http.Server
	ln       net.Listener
	draining atomic.Bool

	// runCached is the Runner call behind /v1/run and /v1/sweep;
	// a test seam (deterministic slow/blocking "simulations" for the
	// backpressure and shutdown tests without burning sim time).
	runCached func(ctx context.Context, o blp.Options) (*blp.Result, bool, error)
}

// New builds a Server from cfg (see Config for defaulting).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	runner := blp.NewRunnerStore(cfg.Jobs, cfg.CacheBytes, cfg.Store)
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * runner.Jobs()
	}
	s := &Server{
		cfg:       cfg,
		runner:    runner,
		q:         newQueue(cfg.MaxConcurrent, cfg.QueueDepth),
		metrics:   newServerMetrics(),
		runCached: runner.RunCached,
	}
	s.hs = &http.Server{
		Addr:              cfg.Addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Runner exposes the shared Runner (figure regeneration in handlers,
// introspection in tests).
func (s *Server) Runner() *blp.Runner { return s.runner }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Handler returns the service's routed handler; useful for tests
// (httptest) and embedding.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.instrument("/v1/run", s.handleRun))
	mux.HandleFunc("POST /v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	mux.HandleFunc("GET /v1/figures/{id}", s.instrument("/v1/figures", s.handleFigure))
	// healthz and metrics bypass the admission queue by construction:
	// they must answer even when the service is saturated.
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	return mux
}

// ListenAndServe listens on cfg.Addr and serves until Shutdown or
// failure, like http.Server.ListenAndServe (returns
// http.ErrServerClosed after a clean drain).
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on an existing listener (tests use :0).
func (s *Server) Serve(ln net.Listener) error {
	s.ln = ln
	s.logf("serving on %s (jobs=%d, concurrent=%d, queue=%d, cache=%d bytes)",
		ln.Addr(), s.runner.Jobs(), s.cfg.MaxConcurrent, s.cfg.QueueDepth, s.cfg.CacheBytes)
	return s.hs.Serve(ln)
}

// Addr returns the bound listen address once Serve has been called.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains the server gracefully: the listener closes (Serve
// returns http.ErrServerClosed), healthz flips to 503 so load balancers
// stop routing here, in-flight requests — including queued ones — run
// to completion, and a final metrics snapshot is flushed to the log.
// ctx bounds the drain; on expiry remaining connections are dropped and
// ctx.Err() returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.hs.Shutdown(ctx)
	snap := s.metrics.snapshot(s.runner, s.q, true)
	s.logf("drained: %d simulated, %d cached (%d hits + %d joined), %d evictions, %d rejected, %d errors",
		snap.Sims.Simulated, snap.Sims.Cached, snap.Cache.Hits, snap.Cache.Joined,
		snap.Cache.Evictions, snap.Rejected, snap.Errors)
	return err
}

// DrainOnSignal installs the standard operational shutdown policy: the
// first of the given signals (default SIGINT/SIGTERM in cmd/sfserved)
// triggers a graceful Shutdown bounded by drainTimeout; a second signal
// forces an immediate close. The returned channel delivers the drain's
// outcome once.
func (s *Server) DrainOnSignal(drainTimeout time.Duration, sigs ...os.Signal) <-chan error {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, sigs...)
	done := make(chan error, 1)
	go func() {
		sig := <-ch
		s.logf("received %v: draining (timeout %s, signal again to force)", sig, drainTimeout)
		ctx := context.Background()
		var cancel context.CancelFunc = func() {}
		if drainTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, drainTimeout)
		}
		defer cancel()
		go func() {
			<-ch
			s.logf("second signal: forcing close")
			s.hs.Close()
		}()
		done <- s.Shutdown(ctx)
	}()
	return done
}
