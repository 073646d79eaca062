package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	blp "repro"
)

// TestSweepItemErrorCounted pins per-item error accounting: a sweep item
// that fails for a non-timeout reason must show up in the server's error
// counter even though the sweep response itself is a 200 stream. (It
// used to increment nothing, leaving /metrics blind to failing sweeps.)
func TestSweepItemErrorCounted(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/sweep", `{"runs":[
		{"benchmark":"cc","scale":6},
		{"benchmark":"cc","scale":6,"watchdog_cycles":1}
	]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	items := readSweepItems(t, resp)
	var failed int
	for _, it := range items {
		if it.Error != "" {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("failed items = %d, want 1", failed)
	}
	snap := getMetrics(t, ts.URL)
	if snap.Errors != 1 {
		t.Errorf("metrics errors = %d, want 1 (sweep item failure must be counted)", snap.Errors)
	}
	if snap.Timeouts != 0 {
		t.Errorf("metrics timeouts = %d, want 0 (a watchdog abort is not a timeout)", snap.Timeouts)
	}
}

// TestFigureParamRanges pins up-front range validation of figure query
// parameters: values that parse fine but are semantically impossible
// (cores=-1, sizedelta=-10) must be rejected 400 before any simulation,
// not forwarded to the figure functions to die as a 500 or a silently
// clamped sweep.
func TestFigureParamRanges(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{
		"/v1/figures/10?cores=-1",
		"/v1/figures/10?cores=0",
		"/v1/figures/10?cores=1000",
		"/v1/figures/10?sizedelta=-10",
		"/v1/figures/10?sizedelta=99",
		"/v1/figures/4?delta=-100",
		"/v1/figures/4?delta=100",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		decodeInto(t, resp, &er)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", path, resp.StatusCode, er.Error)
		}
		if er.Error == "" {
			t.Errorf("%s: empty error body", path)
		}
	}
	if snap := getMetrics(t, ts.URL); snap.Sims.Simulated != 0 {
		t.Fatalf("rejected figure params simulated %d runs", snap.Sims.Simulated)
	}
}

// TestServerWarmStart runs the service's whole durable-store story over
// one directory: a first server computes and persists, a second server —
// fresh process state, same directory — serves the identical request
// from disk without simulating, and /metrics exposes the store section.
func TestServerWarmStart(t *testing.T) {
	dir := t.TempDir()
	body := `{"benchmark":"cc","scale":6}`

	st1, err := blp.OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{Store: st1})
	resp := postJSON(t, ts1.URL+"/v1/run", body)
	var first RunResponse
	decodeInto(t, resp, &first)
	if first.Result == nil {
		t.Fatalf("no result: %+v", first)
	}
	snap := getMetrics(t, ts1.URL)
	if snap.Store == nil || snap.Store.Writes == 0 {
		t.Fatalf("store not visible or empty after a run: %+v", snap.Store)
	}
	if snap.BehaviorVersion != blp.BehaviorVersion() {
		t.Fatalf("behavior_version %q, want %q", snap.BehaviorVersion, blp.BehaviorVersion())
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := blp.OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_, ts2 := newTestServer(t, Config{Store: st2})
	resp = postJSON(t, ts2.URL+"/v1/run", body)
	var second RunResponse
	decodeInto(t, resp, &second)
	if second.Result == nil {
		t.Fatalf("warm start returned no result: %+v", second)
	}
	if fmt.Sprintf("%+v", second.Result) != fmt.Sprintf("%+v", first.Result) {
		t.Errorf("warm-start result differs:\ncold %+v\nwarm %+v", first.Result, second.Result)
	}
	snap = getMetrics(t, ts2.URL)
	if snap.Sims.Simulated != 0 {
		t.Errorf("warm start simulated %d runs, want 0", snap.Sims.Simulated)
	}
	if snap.Store == nil || snap.Store.Hits == 0 {
		t.Errorf("warm start shows no store hits: %+v", snap.Store)
	}
}

// TestServerSharedStoreDir is the multi-host setup: one server per host
// over a shared store directory. Two store handles are open on one
// directory at once; server A computes a sweep, and server B, started on
// its own handle while A's is still open, answers the same sweep from
// disk byte-identically without simulating.
func TestServerSharedStoreDir(t *testing.T) {
	dir := t.TempDir()
	sweep := `{"runs":[
		{"benchmark":"cc","scale":6},
		{"benchmark":"cc","scale":6,"mode":"outer"},
		{"benchmark":"bfs","scale":6}
	]}`
	results := func(url string) map[int]string {
		t.Helper()
		resp := postJSON(t, url+"/v1/sweep", sweep)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep status %d", resp.StatusCode)
		}
		out := make(map[int]string)
		for _, it := range readSweepItems(t, resp) {
			if it.Error != "" || it.Result == nil {
				t.Fatalf("bad item: %+v", it)
			}
			b, err := json.Marshal(it.Result)
			if err != nil {
				t.Fatal(err)
			}
			out[it.Index] = string(b)
		}
		if len(out) != 3 {
			t.Fatalf("sweep covered %d indices, want 3", len(out))
		}
		return out
	}

	stA, err := blp.OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stA.Close()
	_, tsA := newTestServer(t, Config{Store: stA})
	cold := results(tsA.URL)

	stB, err := blp.OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	_, tsB := newTestServer(t, Config{Store: stB})
	warm := results(tsB.URL)

	for i, want := range cold {
		if warm[i] != want {
			t.Errorf("item %d: shared-directory result differs:\ncold %s\nwarm %s", i, want, warm[i])
		}
	}
	snap := getMetrics(t, tsB.URL)
	if snap.Sims.Simulated != 0 {
		t.Errorf("server B simulated %d runs, want 0", snap.Sims.Simulated)
	}
	if snap.Store == nil || snap.Store.Hits == 0 {
		t.Errorf("server B shows no store hits: %+v", snap.Store)
	}
}

// TestMetricsStoreNullWithoutStore pins the schema: a server without a
// durable store reports store: null, not a zeroed struct that could be
// mistaken for an empty-but-present store.
func TestMetricsStoreNullWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if snap := getMetrics(t, ts.URL); snap.Store != nil {
		t.Fatalf("store section present without a store: %+v", snap.Store)
	}
}
