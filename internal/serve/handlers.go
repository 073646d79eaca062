package serve

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	blp "repro"
)

// maxSweepRuns bounds one sweep request; bigger parameter grids should
// be split client-side (results are memoized server-side, so splitting
// costs nothing but requests).
const maxSweepRuns = 1024

// admit runs the request through the bounded admission queue, answering
// 429 (+ Retry-After) or client-gone itself. The caller must release()
// iff admit returns true.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	err := s.q.acquire(r.Context())
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrQueueFull):
		s.metrics.addRejected()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "admission queue full; retry later")
		return false
	default:
		// The client went away (or drain canceled it) while queued;
		// nothing useful can be written.
		return false
	}
}

// runCtx applies the per-run timeout to a request context.
func (s *Server) runCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.RunTimeout > 0 {
		return context.WithTimeout(ctx, s.cfg.RunTimeout)
	}
	return ctx, func() {}
}

// handleRun answers POST /v1/run: one Options, one result.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var rq RunRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rq); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request body: "+err.Error())
		return
	}
	o, err := rq.Options()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.q.release()

	ctx, cancel := s.runCtx(r.Context())
	defer cancel()
	start := time.Now()
	res, cached, err := s.runCached(ctx, o)
	if err != nil {
		s.runError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RunResponse{
		SchemaVersion: SchemaVersion,
		Key:           o.Key(),
		Cached:        cached,
		ElapsedMS:     float64(time.Since(start).Microseconds()) / 1000,
		Result:        resultJSON(res),
	})
}

// failure counts a run's failure and names its status: a deadline is a
// timeout (504), a cancellation is the client going away (0: nothing to
// answer, nobody's failure), and anything else is an error (500): the
// request was well-formed, and the configuration failed deeper in the
// stack.
func (s *Server) failure(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.addTimeout()
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 0
	default:
		s.metrics.addError()
		return http.StatusInternalServerError
	}
}

// runError answers a failed run with the status failure names.
func (s *Server) runError(w http.ResponseWriter, err error) {
	switch status := s.failure(err); status {
	case http.StatusGatewayTimeout:
		writeError(w, status, "run exceeded the server's per-run timeout")
	case http.StatusInternalServerError:
		writeError(w, status, err.Error())
	}
}

// handleSweep answers POST /v1/sweep: every run is validated up front
// (any invalid entry fails the whole batch with a 400 before simulation
// starts), then all runs execute through the shared Runner — deduped
// against each other and every other client — and stream back as NDJSON
// in completion order.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var rq SweepRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rq); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request body: "+err.Error())
		return
	}
	if len(rq.Runs) == 0 {
		writeError(w, http.StatusBadRequest, "sweep has no runs")
		return
	}
	if len(rq.Runs) > maxSweepRuns {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("sweep has %d runs; max %d per request", len(rq.Runs), maxSweepRuns))
		return
	}
	opts := make([]blp.Options, len(rq.Runs))
	for i, rr := range rq.Runs {
		o, err := rr.Options()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("runs[%d]: %v", i, err))
			return
		}
		opts[i] = o
	}
	if !s.admit(w, r) {
		return
	}
	defer s.q.release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	items := make(chan SweepItem)
	for i, o := range opts {
		go func(i int, o blp.Options) {
			ctx, cancel := s.runCtx(r.Context())
			defer cancel()
			start := time.Now()
			res, cached, err := s.runCached(ctx, o)
			item := SweepItem{
				SchemaVersion: SchemaVersion,
				Index:         i,
				Key:           o.Key(),
				Cached:        cached,
				ElapsedMS:     float64(time.Since(start).Microseconds()) / 1000,
			}
			if err != nil {
				// A failed item is counted like a failed run, though the
				// sweep itself streams on.
				item.Error = err.Error()
				s.failure(err)
			} else {
				item.Result = resultJSON(res)
			}
			items <- item
		}(i, o)
	}
	enc := json.NewEncoder(w)
	for range opts {
		enc.Encode(<-items)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// figureParamRange bounds each figure query parameter. Parsing alone is
// not validation: a syntactically fine integer like cores=-1 or
// sizedelta=-10 used to sail through to the figure functions and
// surface as a 500 (or worse, a silently clamped nonsense sweep). Below,
// the ranges are generous: delta reaches far below the smallest useful
// scale (scaled() clamps at its per-benchmark minimum) and sizedelta
// stays within what keeps the scaled working set at least one. Above,
// they hold every run a figure asks for inside RunRequest's input bound:
// Figs. 9 and 10 add up to 3 to the scale, so at delta 7 and sizedelta 3
// ms (default scale 12) peaks at scale 22, the largest ms input that
// bound admits. cores covers any plausible Fig. 10 sweep. Anything
// outside them is the client's mistake and is answered 400 before a
// simulation starts.
var figureParamRange = map[string][2]int{
	"delta":     {-24, 7},
	"cores":     {1, 256},
	"sizedelta": {-5, 3},
}

// figureParams parses a figure request's query parameters over
// blp.DefaultFigureParams and checks each against figureParamRange.
func figureParams(q url.Values) (blp.FigureParams, error) {
	p := blp.DefaultFigureParams()
	for name, dst := range map[string]*int{"delta": &p.Delta, "cores": &p.Cores, "sizedelta": &p.SizeDelta} {
		v := q.Get(name)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return p, fmt.Errorf("bad %s %q", name, v)
		}
		if rng := figureParamRange[name]; n < rng[0] || n > rng[1] {
			return p, fmt.Errorf("%s %d out of range [%d, %d]", name, n, rng[0], rng[1])
		}
		*dst = n
	}
	return p, nil
}

// handleFigure answers GET /v1/figures/{id}?delta=…&format=json|csv.
// Figure regeneration is not cancelable mid-flight (the figure API
// predates contexts); the admission queue still bounds how many can run
// and the underlying runs stay memoized for the next request.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	id, ok := blp.FigureID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown figure %q (%s)",
			r.PathValue("id"), strings.Join(blp.FigureIDs(), ", ")))
		return
	}
	p, err := figureParams(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "", "json", "csv":
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (json or csv)", format))
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.q.release()

	fig, err := s.runner.Figure(id, p)
	if err != nil {
		s.runError(w, err)
		return
	}
	if format == "csv" {
		m := fig.Metrics()
		w.Header().Set("Content-Type", "text/csv")
		cw := csv.NewWriter(w)
		cw.Write(m.Header)
		cw.WriteAll(m.Rows)
		return
	}
	writeJSON(w, http.StatusOK, blp.NewReport(fig))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.snapshot(s.runner, s.q, s.draining.Load()))
}
