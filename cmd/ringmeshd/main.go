// Command ringmeshd serves simulations over HTTP/JSON: clients POST
// run and sweep jobs against either network model, poll (or
// SSE-watch) job documents, and identical jobs are answered from a
// content-addressed result cache — sound because simulations are
// deterministic (see DESIGN.md §7).
//
//	ringmeshd -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/runs -d '{"config":{"network":"mesh","nodes":64,"line_bytes":32,"buffer_flits":4,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7},"seed":42}}'
//	curl -s localhost:8080/v1/jobs/K5RQ2ZWA-1
//
// Job IDs are opaque: a random per-boot prefix plus a sequence number,
// so no ID is reused across restarts.
//
// Endpoints: POST /v1/runs, POST /v1/sweeps, POST /v1/batch,
// GET /v1/jobs/{id} (?watch=1 for SSE), GET /healthz (liveness),
// GET /readyz (readiness with the queued job count), GET /metrics.
//
// Execution: -workers simulations run at once, each on the serial
// engine (DESIGN.md §8), and a sweep or batch spreads its points over
// whichever of them are idle; a request's own "workers" value is
// ignored.
//
// Admission control: every queued job waits in one FIFO of at most
// -queue jobs. Admission refuses work only at that bound: the arrival
// is shed with 503, Retry-After and a structured
// {"error","retry_after_ms"} body, and a queued job is never evicted.
// A "class" field in a body is accepted and ignored. An optional
// end-to-end deadline (X-Ringmeshd-Deadline header or deadline_ms
// field) is enforced at dequeue and through the run's context; a job
// that runs out of it fails with kind "deadline" (504).
//
// Multi-fidelity serving: submissions may carry a fidelity field —
// "simulate" (default), "analytic" (inline closed-form estimate,
// labeled with its recorded error bound, never queued), or "auto"
// (cache hit if available, else an analytic answer plus an "upgrade
// to exact" job, queued best-effort and never journaled, whose ID
// rides in the response).
// Estimates are computed on every request and never cached; exact
// results are.
// ringmeshd_fidelity_* counters and per-fidelity latency histograms
// appear on /metrics.
//
// Durability: -cache-dir adds a disk tier under the in-memory result
// cache (checksummed files, atomic renames), so results survive
// restarts — even kill -9 — and N replicas can share one mounted
// directory. -journal-dir additionally journals every job state
// transition to an fsync'd write-ahead log, so accepted-but-unfinished
// jobs survive kill -9 too: on restart the journal replays and
// re-enqueues them under their original IDs.
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
		workers      = flag.Int("workers", 0, "simulations at once, each on the serial engine; a sweep or batch uses the idle ones (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "pending job bound; jobs run first in, first out, and an arrival at the bound is shed with 503 + Retry-After")
		journalDir   = flag.String("journal-dir", "", "crash-safe job journal directory; accepted jobs survive kill -9 and replay on restart (empty = off)")
		cacheEntries = flag.Int("cache-entries", 256, "result cache bound (LRU)")
		cacheDir     = flag.String("cache-dir", "", "durable disk cache directory; results survive restarts and may be shared by replicas (empty = memory only)")
		maxBody      = flag.Int64("max-body", 1<<20, "request body bound in bytes")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
		pprofOn      = flag.Bool("pprof", false, "mount Go profiling endpoints under /debug/pprof (exposes stacks and heap contents)")
		logLevel     = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	)
	flag.Parse()

	if err := validateFlags(*workers, *queue, *cacheEntries, *maxBody, *drainTimeout); err != nil {
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
		MaxBody:      *maxBody,
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
		"cache_dir", *cacheDir, "journal_dir", *journalDir)

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
func validateFlags(workers, queue, cacheEntries int, maxBody int64, drainTimeout time.Duration) error {
	switch {
	case workers < 0:
		return fmt.Errorf("-workers %d < 0", workers)
	case queue < 1:
		return fmt.Errorf("-queue %d < 1", queue)
	case cacheEntries < 1:
		return fmt.Errorf("-cache-entries %d < 1", cacheEntries)
	case maxBody < 1:
		return fmt.Errorf("-max-body %d < 1", maxBody)
	case drainTimeout < 1*time.Second:
		return fmt.Errorf("-drain-timeout %s < 1s", drainTimeout)
	default:
		return nil
	}
}
