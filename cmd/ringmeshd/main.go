// Command ringmeshd serves simulations over HTTP/JSON: clients POST
// run and sweep jobs against any registered network model, poll (or
// SSE-watch) job documents, and identical jobs are answered from a
// content-addressed result cache — sound because simulations are
// deterministic (see DESIGN.md §7).
//
//	ringmeshd -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/runs -d '{"config":{"network":"mesh","nodes":64,"line_bytes":32,"buffer_flits":4,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":42}}'
//	curl -s localhost:8080/v1/jobs/j000001
//
// Endpoints: POST /v1/runs, POST /v1/sweeps, POST /v1/batch,
// GET /v1/jobs/{id} (?watch=1 for SSE), GET /healthz (liveness),
// GET /readyz (readiness with per-class queue depths), GET /metrics.
//
// Execution: -workers jobs run at once, every point on the serial
// engine (DESIGN.md §8); a request's own "workers" value is ignored.
//
// Admission control: every submission carries a priority class
// (interactive, batch, background; default interactive, /v1/batch
// defaults to batch) drained by a weighted scheduler so interactive
// runs preempt bulk work, and an optional end-to-end deadline
// (X-Ringmeshd-Deadline header or deadline_ms field) that flows from
// the queue through the engine to coordinator dispatches. Under
// saturation the lowest class is shed first, with Retry-After and a
// structured {"error","class","retry_after_ms"} body.
//
// Multi-fidelity serving: submissions may carry a fidelity field —
// "simulate" (default), "analytic" (inline closed-form estimate,
// labeled with its recorded error bound, never queued), or "auto"
// (cache hit if available, else an analytic answer plus a background
// "upgrade to exact" job whose ID rides in the response). Estimates
// and exact results live under distinct cache keys; under admission
// pressure, background runs that named no tier degrade to
// analytic-with-upgrade instead of 503. ringmeshd_fidelity_* counters
// and per-fidelity latency histograms appear on /metrics.
//
// Durability: -cache-dir adds a disk tier under the in-memory result
// cache (checksummed files, atomic renames), so results survive
// restarts — even kill -9 — and N replicas can share one mounted
// directory. -journal-dir additionally journals every job state
// transition to an fsync'd write-ahead log, so accepted-but-unfinished
// jobs survive kill -9 too: on restart the journal replays and
// re-enqueues them under their original IDs and classes.
//
// Coordinator mode: -coordinator -worker-addrs=h1:8080,h2:8080 fans
// jobs out to worker daemons over the same HTTP API instead of
// simulating locally, one worker per point at a time, with bounded
// retries, per-worker circuit breakers re-admitted via readiness
// probes, and degraded sweep responses (completed points plus a
// structured per-point error report) when replicas die mid-sweep.
//
// SIGINT/SIGTERM drain gracefully: new submissions get 503 while
// queued and in-flight jobs finish (bounded by -drain-timeout), then
// the listener closes. Exit codes: 0 clean shutdown, 1 runtime
// failure, 2 configuration error.
//
// Observability: every job's lifecycle spans are served at
// GET /v1/jobs/{id}/trace as Chrome trace-event JSON, queue-wait and
// run-duration histograms appear on /metrics, structured logs with
// job IDs go to stderr (-log-level to tune), and -pprof mounts the Go
// profiling endpoints under /debug/pprof.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ringmesh/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "job pool size: jobs executing at once, each point on the serial engine (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "pending job bound across all classes; at the bound lower classes are shed first")
		journalDir   = flag.String("journal-dir", "", "crash-safe job journal directory; accepted jobs survive kill -9 and replay on restart (empty = off)")
		cacheEntries = flag.Int("cache-entries", 256, "result cache bound (LRU)")
		cacheDir     = flag.String("cache-dir", "", "durable disk cache directory; results survive restarts and may be shared by replicas (empty = memory only)")
		coord        = flag.Bool("coordinator", false, "coordinator mode: fan jobs out to -worker-addrs instead of simulating locally")
		workerAddrs  = flag.String("worker-addrs", "", "comma-separated worker base URLs for -coordinator, e.g. http://h1:8080,http://h2:8080")
		rate         = flag.Float64("rate", 0, "per-client request rate limit in req/s (0 = off)")
		burst        = flag.Int("burst", 0, "per-client burst size (0 = 2x rate)")
		maxBody      = flag.Int64("max-body", 1<<20, "request body bound in bytes")
		jobTimeout   = flag.Duration("job-timeout", 0, "wall-clock bound per job, e.g. 5m (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
		pprofOn      = flag.Bool("pprof", false, "mount Go profiling endpoints under /debug/pprof (exposes stacks and heap contents)")
		logLevel     = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	)
	flag.Parse()

	if err := validateFlags(*workers, *queue, *cacheEntries, *rate, *burst, *maxBody,
		*jobTimeout, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "ringmeshd:", err)
		os.Exit(2)
	}
	addrsList, err := parseWorkerAddrs(*coord, *workerAddrs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringmeshd:", err)
		os.Exit(2)
	}
	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringmeshd:", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	srv, err := serve.New(serve.Options{
		Workers:      *workers,
		QueueDepth:   *queue,
		JournalDir:   *journalDir,
		CacheEntries: *cacheEntries,
		CacheDir:     *cacheDir,
		WorkerAddrs:  addrsList,
		Rate:         *rate,
		Burst:        *burst,
		MaxBody:      *maxBody,
		JobTimeout:   *jobTimeout,
		Logger:       logger,
		EnablePprof:  *pprofOn,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringmeshd:", err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ringmeshd:", err)
		os.Exit(1)
	}
	logger.Info("listening", "addr", ln.Addr().String(), "pprof", *pprofOn,
		"cache_dir", *cacheDir, "journal_dir", *journalDir,
		"coordinator", *coord, "workers", len(addrsList))

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "ringmeshd:", err)
		os.Exit(1)
	case <-sigCtx.Done():
	}

	// Drain first so job polling stays available while in-flight work
	// finishes; only then close the listener.
	logger.Info("draining", "timeout", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := srv.Drain(dctx); err != nil {
		logger.Warn("drain incomplete", "err", err)
		code = 1
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("shutdown", "err", err)
		code = 1
	}
	logger.Info("stopped")
	os.Exit(code)
}

// parseWorkerAddrs validates the coordinator flag pair and splits the
// worker list, defaulting bare host:port entries to http://.
func parseWorkerAddrs(coordinator bool, addrs string) ([]string, error) {
	if !coordinator && addrs == "" {
		return nil, nil
	}
	if coordinator != (addrs != "") {
		return nil, fmt.Errorf("-coordinator and -worker-addrs must be used together")
	}
	var out []string
	for _, a := range strings.Split(addrs, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.HasPrefix(a, "http://") && !strings.HasPrefix(a, "https://") {
			a = "http://" + a
		}
		out = append(out, strings.TrimRight(a, "/"))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-worker-addrs %q names no workers", addrs)
	}
	return out, nil
}

// parseLevel maps the -log-level flag onto slog levels.
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("-log-level %q: want debug, info, warn, or error", s)
	}
}

// validateFlags rejects nonsense values with messages naming the flag.
func validateFlags(workers, queue, cacheEntries int, rate float64, burst int,
	maxBody int64, jobTimeout, drainTimeout time.Duration) error {
	switch {
	case workers < 0:
		return fmt.Errorf("-workers %d < 0", workers)
	case queue < 1:
		return fmt.Errorf("-queue %d < 1", queue)
	case cacheEntries < 1:
		return fmt.Errorf("-cache-entries %d < 1", cacheEntries)
	case rate < 0:
		return fmt.Errorf("-rate %g < 0", rate)
	case burst < 0:
		return fmt.Errorf("-burst %d < 0", burst)
	case maxBody < 1:
		return fmt.Errorf("-max-body %d < 1", maxBody)
	case jobTimeout < 0:
		return fmt.Errorf("-job-timeout %s < 0", jobTimeout)
	case drainTimeout < 1*time.Second:
		return fmt.Errorf("-drain-timeout %s < 1s", drainTimeout)
	default:
		return nil
	}
}
