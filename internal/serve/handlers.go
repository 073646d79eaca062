package serve

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
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

// runError maps a simulation failure to a response: deadline → 504,
// client-gone → nothing, anything else → 500 (the request was
// well-formed; the configuration itself failed validation or simulation
// deeper in the stack).
func (s *Server) runError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.addTimeout()
		writeError(w, http.StatusGatewayTimeout, "run exceeded the server's per-run timeout")
	case errors.Is(err, context.Canceled):
		// Client disconnected; the response writer is dead.
	default:
		s.metrics.addError()
		writeError(w, http.StatusInternalServerError, err.Error())
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

	// A sweep is a batch the Runner can see whole: hint it exactly as
	// RunAllContext hints its own fan-outs, so a sweep varying only
	// timing configuration captures each workload's trace once and
	// replays it for every other run, instead of re-running the
	// functional emulator per configuration.
	release := s.runner.HintTraces(opts)
	defer release()

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
				item.Error = err.Error()
				// Classify like runError: a deadline is a timeout, a
				// client disconnect is nobody's failure, anything else
				// is a genuine per-item error and must show up in the
				// error counter even though the sweep itself streams on.
				switch {
				case errors.Is(err, context.DeadlineExceeded):
					s.metrics.addTimeout()
				case errors.Is(err, context.Canceled):
				default:
					s.metrics.addError()
				}
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

// figureFuncs regenerates one figure by id through the shared Runner, so
// repeated figure requests — and single runs that overlap a figure's
// grid — reuse each other's simulations. Matches cmd/experiments' ids.
func (s *Server) figureByID(id string, q map[string]int) (*blp.Figure, error) {
	r := s.runner
	delta := q["delta"]
	switch id {
	case "table1", "1":
		return blp.Table1(), nil
	case "motivation", "3":
		return r.Motivation(delta)
	case "4":
		return r.Fig4(delta)
	case "5":
		return r.Fig5(delta)
	case "6":
		return r.Fig6(delta)
	case "7":
		return r.Fig7(delta, nil)
	case "8":
		return r.Fig8(delta, nil)
	case "9":
		return r.Fig9(delta)
	case "10":
		return r.Fig10(delta, q["cores"], q["sizedelta"])
	case "11":
		return r.Fig11(delta)
	}
	return nil, nil
}

// figureParamRange bounds each figure query parameter. Parsing alone is
// not validation: a syntactically fine integer like cores=-1 or
// sizedelta=-10 used to sail through to the figure functions and
// surface as a 500 (or worse, a silently clamped nonsense sweep). The
// ranges are generous — delta reaches far below the smallest useful
// scale (scaled() clamps at its per-benchmark minimum), cores covers
// any plausible Fig. 10 sweep, sizedelta stays within what keeps the
// scaled working set at least one — but anything outside them is the
// client's mistake and is answered 400 before a simulation starts.
var figureParamRange = map[string][2]int{
	"delta":     {-24, 8},
	"cores":     {1, 256},
	"sizedelta": {-5, 8},
}

// handleFigure answers GET /v1/figures/{id}?delta=…&format=json|csv.
// Figure regeneration is not cancelable mid-flight (the figure API
// predates contexts); the admission queue still bounds how many can run
// and the underlying runs stay memoized for the next request.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := map[string]int{"delta": 0, "cores": 16, "sizedelta": 3}
	for name := range q {
		if v := r.URL.Query().Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("bad %s %q", name, v))
				return
			}
			if rng := figureParamRange[name]; n < rng[0] || n > rng[1] {
				writeError(w, http.StatusBadRequest,
					fmt.Sprintf("%s %d out of range [%d, %d]", name, n, rng[0], rng[1]))
				return
			}
			q[name] = n
		}
	}
	if id == "10" {
		// Fig. 10's multicore runs must be able to size their LLC.
		if err := (blp.Options{Cores: q["cores"]}).Validate(); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
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

	fig, err := s.figureByID(id, q)
	if err != nil {
		s.runError(w, err)
		return
	}
	if fig == nil {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("unknown figure %q (table1, motivation, 4..11)", id))
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
