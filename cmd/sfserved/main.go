// Command sfserved runs the simulation service: the blp experiment
// harness behind a multi-tenant HTTP API (see internal/serve).
//
//	sfserved                        # serve on :8344, NumCPU sim workers
//	sfserved -addr :9000 -jobs 8
//	sfserved -cache-mb 256 -queue 128 -run-timeout 2m
//	sfserved -store-dir /var/lib/sfserved -store-budget 2048
//	sfserved -ledger /var/lib/sfserved   # print the ledger summary, exit
//
//	# Several hosts: one sfserved per host over a shared -store-dir.
//	sfserved -store-dir /mnt/shared/sfstore
//
//	curl -s localhost:8344/healthz
//	curl -s -X POST localhost:8344/v1/run \
//	     -d '{"benchmark":"bfs","mode":"outer","scale":12}'
//	curl -sN -X POST localhost:8344/v1/sweep \
//	     -d '{"runs":[{"benchmark":"cc"},{"benchmark":"cc","mode":"outer"}]}'
//	curl -s 'localhost:8344/v1/figures/4?delta=-2&format=csv'
//	curl -s localhost:8344/metrics
//
// With -store-dir the server keeps a durable result store: completed
// simulations (and captured traces) persist across restarts, so a
// restarted server warm-starts from disk instead of re-simulating.
// Objects are stamped with the simulator-behavior version; a binary
// whose numbers changed invalidates stale entries automatically. The
// directory also accumulates an append-only experiment ledger
// (ledger.ndjson); -ledger prints its summary — computations, simulated
// cycles and wall clock per behavior version and benchmark — and exits
// without serving. Several servers may share
// one directory: each indexes it when it starts, so a server warm-starts
// from everything the others had stored by then.
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight
// requests finish (bounded by -drain-timeout), and a final metrics
// snapshot is logged. A second signal forces an immediate close.
package main

import (
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"syscall"
	"time"

	blp "repro"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sfserved: ")

	addr := flag.String("addr", ":8344", "listen address")
	jobs := flag.Int("jobs", 0, "max concurrent simulations (0 = NumCPU)")
	cacheMB := flag.Int("cache-mb", 64, "result-cache budget in MiB (0 = unbounded)")
	concurrent := flag.Int("concurrent", 0, "max admitted requests (0 = 2x jobs)")
	queueDepth := flag.Int("queue", 64, "requests waiting for admission before 429s")
	runTimeout := flag.Duration("run-timeout", 5*time.Minute, "per-run timeout (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound")
	storeDir := flag.String("store-dir", "", "durable result-store directory (empty = no persistence)")
	storeBudget := flag.Int("store-budget", 0, "durable-store disk budget in MiB (0 = unbounded)")
	ledger := flag.String("ledger", "", "print a summary of a store's experiment ledger (a store directory or ledger.ndjson path) and exit")
	flag.Parse()

	if *ledger != "" {
		if err := summarizeLedger(os.Stdout, *ledger); err != nil {
			log.Fatal(err)
		}
		return
	}

	cacheBytes := int64(*cacheMB) << 20
	if *cacheMB == 0 {
		cacheBytes = -1 // serve maps 0 to the default; negative = unbounded
	}
	cfg := serve.Config{
		Addr:          *addr,
		Jobs:          *jobs,
		CacheBytes:    cacheBytes,
		MaxConcurrent: *concurrent,
		QueueDepth:    *queueDepth,
		RunTimeout:    *runTimeout,
		Logf:          log.Printf,
	}
	if *storeDir != "" {
		st, err := blp.OpenStore(*storeDir, int64(*storeBudget)<<20)
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		ss := st.Stats()
		log.Printf("store %s: %d objects, %d bytes, behavior version %s",
			*storeDir, ss.Entries, ss.Bytes, st.Version())
		cfg.Store = st
	}
	s := serve.New(cfg)
	drained := s.DrainOnSignal(*drainTimeout, syscall.SIGINT, syscall.SIGTERM)

	err := s.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// The listener is closed; wait for the drain to finish in-flight
	// work and flush the final metrics snapshot (the deferred store
	// Close runs after that, once nothing can append to the ledger).
	if err := <-drained; err != nil {
		log.Fatalf("drain: %v", err)
	}
}
