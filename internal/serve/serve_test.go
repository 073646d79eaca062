package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	blp "repro"
)

// newTestServer builds a Server (no listener) and an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

func getMetrics(t *testing.T, baseURL string) MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	var snap MetricsSnapshot
	decodeInto(t, resp, &snap)
	return snap
}

func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"benchmark":"cc","scale":6}`

	resp := postJSON(t, ts.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var rr RunResponse
	decodeInto(t, resp, &rr)
	if rr.SchemaVersion != SchemaVersion {
		t.Fatalf("schema_version %d, want %d", rr.SchemaVersion, SchemaVersion)
	}
	if rr.Cached {
		t.Fatal("first request reported cached")
	}
	if rr.Result == nil || rr.Result.Cycles <= 0 || rr.Result.Stats.Committed == 0 {
		t.Fatalf("implausible result: %+v", rr.Result)
	}
	if rr.Key == "" {
		t.Fatal("missing canonical key")
	}

	// The identical request — spelled with explicit defaults — is served
	// from the shared cache.
	resp = postJSON(t, ts.URL+"/v1/run", `{"benchmark":"cc","scale":6,"seed":1,"degree":16}`)
	var rr2 RunResponse
	decodeInto(t, resp, &rr2)
	if !rr2.Cached {
		t.Fatal("duplicate request was not served from cache")
	}
	if rr2.Key != rr.Key || rr2.Result.Cycles != rr.Result.Cycles {
		t.Fatal("duplicate served a different result")
	}
	snap := getMetrics(t, ts.URL)
	if snap.Cache.Hits+snap.Cache.Joined == 0 {
		t.Fatalf("metrics show no cache sharing: %+v", snap.Cache)
	}
	if snap.Sims.Simulated != 1 {
		t.Fatalf("simulated %d, want 1", snap.Sims.Simulated)
	}

	// A second timing configuration of the same workload simulates.
	resp = postJSON(t, ts.URL+"/v1/run", `{"benchmark":"cc","scale":6,"predictor":"oracle"}`)
	var rr3 RunResponse
	decodeInto(t, resp, &rr3)
	if rr3.Cached {
		t.Fatal("distinct timing configuration reported cached")
	}
	if snap = getMetrics(t, ts.URL); snap.Sims.Simulated != 2 {
		t.Fatalf("simulated %d, want 2", snap.Sims.Simulated)
	}
}

// TestRunPolicyEndpoint drives the recovery-policy matrix over the wire:
// each policy string is a distinct timing configuration (own key, own
// simulation) of the same captured workload, and the policy-specific
// counters surface in the returned stats.
func TestRunPolicyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	run := func(body string) RunResponse {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/run", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d for %s", resp.StatusCode, body)
		}
		var rr RunResponse
		decodeInto(t, resp, &rr)
		if rr.Result == nil || rr.Result.Cycles <= 0 || rr.Result.Stats.Committed == 0 {
			t.Fatalf("implausible result for %s: %+v", body, rr.Result)
		}
		return rr
	}

	base := run(`{"benchmark":"cc","scale":6}`)
	part := run(`{"benchmark":"cc","scale":6,"policy":"partial:8"}`)
	thr := run(`{"benchmark":"cc","scale":6,"policy":"throttle:4"}`)

	if part.Key == base.Key || thr.Key == base.Key || part.Key == thr.Key {
		t.Fatalf("policies did not get distinct cache keys:\n%s\n%s\n%s",
			base.Key, part.Key, thr.Key)
	}
	if part.Result.Stats.Committed != base.Result.Stats.Committed ||
		thr.Result.Stats.Committed != base.Result.Stats.Committed {
		t.Fatal("a recovery policy changed the committed instruction count")
	}
	if part.Result.Stats.DrainCycles == 0 {
		t.Fatal("partial:8 run reported no drain cycles")
	}
	if thr.Result.Stats.ThrottledCycles == 0 {
		t.Fatal("throttle:4 run reported no throttled cycles")
	}

	// An explicitly spelled default policy is the same simulation: it must
	// normalize onto the baseline's cache entry, not fork a new one.
	conv := run(`{"benchmark":"cc","scale":6,"policy":"conventional"}`)
	if !conv.Cached || conv.Key != base.Key {
		t.Fatalf("explicit default policy missed the cache: cached=%v key=%s",
			conv.Cached, conv.Key)
	}
}

func TestRunValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"malformed json", `{"benchmark":`},
		{"unknown field", `{"benchmark":"cc","bogus":1}`},
		{"missing benchmark", `{}`},
		{"unknown benchmark", `{"benchmark":"dijkstra"}`},
		{"unknown mode", `{"benchmark":"cc","mode":"sideways"}`},
		{"inner on non-sliceable", `{"benchmark":"bfs","mode":"inner"}`},
		{"bad smt", `{"benchmark":"cc","smt":3}`},
		{"bad scale", `{"benchmark":"cc","scale":31}`},
		{"bad predictor", `{"benchmark":"cc","predictor":"psychic"}`},
		{"bad policy", `{"benchmark":"cc","policy":"psychic"}`},
		{"bad policy depth", `{"benchmark":"cc","policy":"partial:x"}`},
		{"bad policy conf", `{"benchmark":"cc","policy":"throttle:9"}`},
		{"reserve below sentinel", `{"benchmark":"cc","reserve":-2}`},
		{"negative watchdog", `{"benchmark":"cc","watchdog_cycles":-1}`},
		{"3 cores", `{"benchmark":"cc","cores":3}`},
		{"28 cores", `{"benchmark":"cc","cores":28}`},
		{"zero reserve under slicing", `{"benchmark":"cc","mode":"outer","reserve":-1}`},
		{"zero rob block", `{"benchmark":"cc","rob_block_size":-1}`},
		{"reserve above the RS", `{"benchmark":"cc","reserve":500}`},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/run", tc.body)
		var er errorResponse
		decodeInto(t, resp, &er)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, er.Error)
			continue
		}
		if er.Error == "" {
			t.Errorf("%s: empty error body", tc.name)
		}
	}
	// None of those may have reached a simulator.
	if snap := getMetrics(t, ts.URL); snap.Sims.Simulated != 0 || snap.Errors != 0 {
		t.Fatalf("validation failures simulated %d runs and counted %d errors",
			snap.Sims.Simulated, snap.Errors)
	}

	// Wrong method on a valid route.
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run status %d, want 405", resp.StatusCode)
	}
}

// The wire bounds the input a request may build, since graph.RMAT
// allocates its whole edge list up front: 2^scale·degree at most 2^26,
// degree taken after defaulting. RMAT-22 at degree 16, the paper's
// largest input, is admitted and one step past it is not. Only
// RunRequest.Options runs here; nothing is built.
func TestRunRequestInputBound(t *testing.T) {
	for _, tc := range []struct {
		rq RunRequest
		ok bool
	}{
		{RunRequest{Benchmark: "bfs", Scale: 30}, false},
		{RunRequest{Benchmark: "bfs", Scale: 10, Degree: 1 << 40}, false},
		{RunRequest{Benchmark: "ms", Scale: 30}, false},
		{RunRequest{Benchmark: "bfs", Scale: 22}, true},
		{RunRequest{Benchmark: "bfs", Scale: 22, Degree: 17}, false},
		{RunRequest{Benchmark: "ms", Scale: 22}, true},
		{RunRequest{Benchmark: "ms", Scale: 23}, false},
		{RunRequest{Benchmark: "cc", Scale: 26, Degree: 1}, true},
		{RunRequest{Benchmark: "cc", Scale: 27, Degree: 1}, false},
		{RunRequest{Benchmark: "cc", Degree: 1 << 16}, true}, // default scale 10
		{RunRequest{Benchmark: "cc", Degree: 1<<16 + 1}, false},
	} {
		_, err := tc.rq.Options()
		if (err == nil) != tc.ok {
			t.Errorf("%+v: err = %v, want accepted = %v", tc.rq, err, tc.ok)
		}
	}
}

// The top of figureParamRange keeps every run a figure requests inside
// RunRequest's input bound, and one step past the top is rejected. Only
// the parameter check and RunRequest.Options run here; nothing is built.
func TestFigureParamsWithinInputBound(t *testing.T) {
	p, err := figureParams(url.Values{
		"delta":     {strconv.Itoa(figureParamRange["delta"][1])},
		"sizedelta": {strconv.Itoa(figureParamRange["sizedelta"][1])},
	})
	if err != nil {
		t.Fatal(err)
	}
	grow := max(3, p.SizeDelta) // Fig. 9 grows each input by up to 2^3
	for _, b := range blp.Benchmarks {
		rq := RunRequest{Benchmark: b, Scale: blp.DefaultScale(b) + p.Delta + grow}
		if _, err := rq.Options(); err != nil {
			t.Errorf("a figure at %+v would request %s at scale %d: %v", p, b, rq.Scale, err)
		}
	}
	for _, q := range []string{"delta=8", "sizedelta=4", "delta=8&sizedelta=8", "delta=-25", "cores=0"} {
		v, _ := url.ParseQuery(q)
		if _, err := figureParams(v); err == nil {
			t.Errorf("figure parameters %s accepted", q)
		}
	}
}

// readSweepItems parses an NDJSON sweep response.
func readSweepItems(t *testing.T, resp *http.Response) []SweepItem {
	t.Helper()
	defer resp.Body.Close()
	var items []SweepItem
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var it SweepItem
		if err := json.Unmarshal(line, &it); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		items = append(items, it)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return items
}

func TestSweepStreaming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"runs":[
		{"benchmark":"cc","scale":6},
		{"benchmark":"cc","scale":6,"mode":"outer"},
		{"benchmark":"cc","scale":6}
	]}`
	resp := postJSON(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type %q", ct)
	}
	items := readSweepItems(t, resp)
	if len(items) != 3 {
		t.Fatalf("got %d items, want 3", len(items))
	}
	seen := map[int]bool{}
	cached := 0
	for _, it := range items {
		if it.SchemaVersion != SchemaVersion {
			t.Fatalf("item schema_version %d", it.SchemaVersion)
		}
		if it.Error != "" || it.Result == nil || it.Result.Cycles <= 0 {
			t.Fatalf("bad item: %+v", it)
		}
		seen[it.Index] = true
		if it.Cached {
			cached++
		}
	}
	if len(seen) != 3 {
		t.Fatalf("indices %v do not cover the request", seen)
	}
	// Runs 0 and 2 share a canonical key: one simulated, one shared.
	if cached == 0 {
		t.Fatal("duplicate run inside the sweep was not deduplicated")
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/sweep", `{"runs":[]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty sweep: status %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/sweep",
		`{"runs":[{"benchmark":"cc","scale":6},{"benchmark":"zz"}]}`)
	var er errorResponse
	decodeInto(t, resp, &er)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid entry: status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(er.Error, "runs[1]") {
		t.Fatalf("error %q does not name the offending entry", er.Error)
	}

	var big strings.Builder
	big.WriteString(`{"runs":[`)
	for i := 0; i <= maxSweepRuns; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		fmt.Fprintf(&big, `{"benchmark":"cc","seed":%d}`, i+1)
	}
	big.WriteString(`]}`)
	resp = postJSON(t, ts.URL+"/v1/sweep", big.String())
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized sweep: status %d, want 400", resp.StatusCode)
	}
	if snap := getMetrics(t, ts.URL); snap.Sims.Simulated != 0 {
		t.Fatalf("rejected sweeps simulated %d runs", snap.Sims.Simulated)
	}
}

// A valid run that fails while it simulates (a one-cycle watchdog fires
// before the first commit) reports its error on its own NDJSON line; the
// sweep itself still succeeds.
func TestSweepItemError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"runs":[
		{"benchmark":"cc","scale":6},
		{"benchmark":"cc","scale":6,"watchdog_cycles":1}
	]}`
	resp := postJSON(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	items := readSweepItems(t, resp)
	if len(items) != 2 {
		t.Fatalf("got %d items", len(items))
	}
	var ok, failed int
	for _, it := range items {
		switch {
		case it.Error == "" && it.Result != nil:
			ok++
		case it.Error != "" && it.Result == nil:
			failed++
		default:
			t.Fatalf("inconsistent item: %+v", it)
		}
	}
	if ok != 1 || failed != 1 {
		t.Fatalf("ok=%d failed=%d, want 1/1", ok, failed)
	}
}

func TestFigureEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// table1 is computed without simulations.
	resp, err := http.Get(ts.URL + "/v1/figures/table1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table1 status %d", resp.StatusCode)
	}
	var rep blp.Report
	decodeInto(t, resp, &rep)
	if rep.SchemaVersion != blp.MetricsSchemaVersion || len(rep.Figures) != 1 {
		t.Fatalf("bad report: %+v", rep)
	}
	if rep.Figures[0].ID != "table1" {
		t.Fatalf("unexpected figure id %q", rep.Figures[0].ID)
	}

	resp, err = http.Get(ts.URL + "/v1/figures/table1?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("csv content-type %q", ct)
	}
	rows, err := csv.NewReader(resp.Body).ReadAll()
	resp.Body.Close()
	if err != nil {
		t.Fatalf("csv parse: %v", err)
	}
	if len(rows) < 2 {
		t.Fatalf("csv has %d rows", len(rows))
	}

	for path, want := range map[string]int{
		"/v1/figures/nope":              http.StatusNotFound,
		"/v1/figures/4?delta=x":         http.StatusBadRequest,
		"/v1/figures/4?format=yaml":     http.StatusBadRequest,
		"/v1/figures/table1?cores=zero": http.StatusBadRequest,
		"/v1/figures/10?cores=3":        http.StatusBadRequest,
		"/v1/figures/10?cores=28":       http.StatusBadRequest,
		// The Fig. 10 pre-check accepts a power-of-two core count.
		"/v1/figures/10?delta=-10&cores=2&sizedelta=0": http.StatusOK,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// A simulation-backed figure regenerates through the shared Runner and
// reuses the cache across requests.
func TestFigureWithRuns(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/figures/4?delta=-10")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fig4 status %d", resp.StatusCode)
	}
	var rep blp.Report
	decodeInto(t, resp, &rep)
	if len(rep.Figures) != 1 || len(rep.Figures[0].Values) == 0 {
		t.Fatalf("fig4 report empty: %+v", rep)
	}
	simulated := s.Runner().Stats().Simulated
	if simulated == 0 {
		t.Fatal("figure ran no simulations")
	}
	// Second request: fully served from the Runner's cache.
	resp, err = http.Get(ts.URL + "/v1/figures/4?delta=-10")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if again := s.Runner().Stats().Simulated; again != simulated {
		t.Fatalf("figure re-simulated: %d -> %d", simulated, again)
	}
}

// The recovery-policy matrix is served under the id `experiments -fig`
// takes for it; the figure-id table used to exist twice, and serve's
// copy had no "policy".
func TestFigurePolicyCSV(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/figures/policy?delta=-10&format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policy status %d, want 200", resp.StatusCode)
	}
	rows, err := csv.NewReader(resp.Body).ReadAll()
	if err != nil || len(rows) < 2 {
		t.Fatalf("csv: %d rows, %v", len(rows), err)
	}
	if !slices.Contains(rows[0], "selective") {
		t.Fatalf("header %v has no selective column", rows[0])
	}
}

// Backpressure: with one execution slot and a one-deep waiting room, a
// third concurrent request is rejected with 429 + Retry-After while the
// first two eventually succeed. The blocking "simulation" is a test seam
// — no timing assumptions.
func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s.runCached = func(ctx context.Context, o blp.Options) (*blp.Result, bool, error) {
		started <- struct{}{}
		select {
		case <-release:
			return &blp.Result{Cycles: 7}, false, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}

	body := `{"benchmark":"cc","scale":6}`
	type outcome struct{ status int }
	results := make(chan outcome, 2)
	do := func() {
		resp := postJSON(t, ts.URL+"/v1/run", body)
		resp.Body.Close()
		results <- outcome{resp.StatusCode}
	}
	go do()
	<-started // A holds the only slot

	go do() // B queues
	deadline := time.Now().Add(10 * time.Second)
	for getMetrics(t, ts.URL).QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp := postJSON(t, ts.URL+"/v1/run", body) // C: waiting room full
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(release)
	for i := 0; i < 2; i++ {
		if o := <-results; o.status != http.StatusOK {
			t.Fatalf("admitted request status %d", o.status)
		}
	}
	snap := getMetrics(t, ts.URL)
	if snap.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", snap.Rejected)
	}
	if snap.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", snap.QueueDepth)
	}
}

// The per-run timeout propagates as context cancellation and surfaces as
// 504.
func TestRunTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{RunTimeout: 20 * time.Millisecond})
	s.runCached = func(ctx context.Context, o blp.Options) (*blp.Result, bool, error) {
		<-ctx.Done()
		return nil, false, ctx.Err()
	}
	resp := postJSON(t, ts.URL+"/v1/run", `{"benchmark":"cc","scale":6}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if snap := getMetrics(t, ts.URL); snap.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", snap.Timeouts)
	}
}

func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	s.draining.Store(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}
}

// A panicking handler answers 500 and the server keeps serving.
func TestPanicContained(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.runCached = func(ctx context.Context, o blp.Options) (*blp.Result, bool, error) {
		panic("injected handler panic")
	}
	resp := postJSON(t, ts.URL+"/v1/run", `{"benchmark":"cc","scale":6}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatal("server unusable after handler panic")
	}
}

// TestMetricsSchemaV4Fields pins the fate of the v2 and v4 additions to
// GET /metrics: schema v7 took the batched-replay and segment-cache
// fields off the wire, and v9 the trace-cache and capture/replay
// counters beside them. TestClusterSingleNodeUnchanged pins what v8
// took off the wire.
func TestMetricsSchemaV4Fields(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"runs":[
		{"benchmark":"cc","scale":6,"mode":"outer"},
		{"benchmark":"cc","scale":6,"mode":"outer","predictor":"oracle"}
	]}`
	resp := postJSON(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if items := readSweepItems(t, resp); len(items) != 2 {
		t.Fatalf("got %d items, want 2", len(items))
	}
	snap := getMetrics(t, ts.URL)
	if snap.SchemaVersion != 9 || SchemaVersion != 9 {
		t.Fatalf("schema_version %d (const %d), want 9", snap.SchemaVersion, SchemaVersion)
	}
	if snap.Sims.Simulated != 2 {
		t.Fatalf("two timing configs of one workload simulated %d times, want 2", snap.Sims.Simulated)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	decodeInto(t, resp, &raw)
	for _, k := range []string{"batch_group_sizes", "trace_cache"} {
		if _, ok := raw[k]; ok {
			t.Errorf("%s still on the wire", k)
		}
	}
	sims, _ := raw["sims"].(map[string]any)
	for _, k := range []string{"batched", "batch_groups", "seg_hits", "seg_misses", "seg_invalidated", "seg_bypassed",
		"captured", "replayed"} {
		if _, ok := sims[k]; ok {
			t.Errorf("sims.%s still on the wire", k)
		}
	}

	// With a store attached, pin every key of the body and of its
	// counter sections, in wire order.
	st, err := blp.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, tsStore := newTestServer(t, Config{Store: st})
	resp, err = http.Get(tsStore.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	wire, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(wire, &sections); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]string{
		"": {"schema_version", "uptime_seconds", "draining", "requests", "rejected", "timeouts", "errors",
			"in_flight_requests", "queue_depth", "queue_capacity", "sims", "cache", "store",
			"behavior_version", "latency"},
		"sims":  {"simulated", "cached", "in_flight"},
		"cache": {"hits", "joined", "misses", "evictions", "entries", "bytes", "budget"},
		"store": {"hits", "misses", "writes", "invalidated", "evictions", "entries", "bytes", "budget"},
	} {
		obj := []byte(sections[name])
		if name == "" {
			obj = wire
		}
		if got := objectKeys(t, obj); !slices.Equal(got, want) {
			t.Errorf("/metrics %q keys = %v, want %v", name, got, want)
		}
	}
}

// objectKeys returns the top-level keys of a JSON object in wire order.
func objectKeys(t *testing.T, obj []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(obj))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", obj)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestClusterSingleNodeUnchanged pins the single-node server, the only
// kind since schema v8 took the cluster fields off the wire: /metrics
// and /healthz carry no cluster section, run and sweep responses carry
// no node, and a request still marked with the old peer-forwarding
// header is served like any other.
func TestClusterSingleNodeUnchanged(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/metrics", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var raw map[string]any
		decodeInto(t, resp, &raw)
		if _, ok := raw["cluster"]; ok {
			t.Errorf("%s still carries a cluster section", path)
		}
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run",
		strings.NewReader(`{"benchmark":"cc","scale":6,"mode":"outer"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Sfserved-Forwarded", "http://nobody:1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded-marked run: status %d", resp.StatusCode)
	}
	var run map[string]any
	decodeInto(t, resp, &run)

	resp = postJSON(t, ts.URL+"/v1/sweep", `{"runs":[{"benchmark":"cc","scale":6,"mode":"outer"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d", resp.StatusCode)
	}
	var item map[string]any
	decodeInto(t, resp, &item)
	for _, m := range []map[string]any{run, item} {
		if _, ok := m["node"]; ok {
			t.Errorf("response still carries node: %v", m)
		}
	}
}
