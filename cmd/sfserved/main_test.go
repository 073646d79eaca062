package main

import (
	"encoding/json"
	"flag"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
)

// TestServeFlags maps sfserved's flags through serve.New and reads the
// result back from /metrics: a zero flag means none (no waiting room, no
// cache bound), not serve.Config's default.
func TestServeFlags(t *testing.T) {
	for _, c := range []struct {
		args          []string
		queueCapacity int64
		cacheBudget   int64
	}{
		{[]string{"-queue", "0"}, 0, 64 << 20},
		{[]string{"-queue", "64"}, 64, 64 << 20},
		{[]string{"-cache-mb", "0"}, 64, 0},
	} {
		fs := flag.NewFlagSet("sfserved", flag.ContinueOnError)
		config := serveFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		serve.New(config()).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		var m serve.MetricsSnapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatalf("%v: /metrics: %v", c.args, err)
		}
		if m.QueueCapacity != c.queueCapacity || m.Cache.Budget != c.cacheBudget {
			t.Errorf("%v: queue_capacity %d, cache budget %d; want %d, %d",
				c.args, m.QueueCapacity, m.Cache.Budget, c.queueCapacity, c.cacheBudget)
		}
	}
}
