package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"sync/atomic"
	"time"

	"ringmesh"
	"ringmesh/internal/metrics"
	"ringmesh/internal/obs"
)

// dispatchError is a coordinator-side failure to obtain a point's
// result from a worker, carrying the error-taxonomy class and status
// the job document reports for it (see classify). Transient classes
// (connect errors, 503/504 submit rejections, canceled/timed-out jobs,
// all breakers open) are
// retried with backoff; deterministic classes (config, stall, model
// panic) are not — the same inputs fail the same way on every
// replica, so retrying only burns budget.
type dispatchError struct {
	worker    string // address, "" when no worker was reachable
	class     string // taxonomy kind: config/stall/timeout/canceled/runtime plus transport classes connect/rejected/unavailable/protocol
	status    int    // HTTP status for the job document
	transient bool
	err       error
}

func (e *dispatchError) Error() string {
	if e.worker == "" {
		return fmt.Sprintf("%s: %v", e.class, e.err)
	}
	return fmt.Sprintf("worker %s: %s: %v", e.worker, e.class, e.err)
}

func (e *dispatchError) Unwrap() error { return e.err }

// workerClient is one worker daemon the coordinator dispatches to.
type workerClient struct {
	name string // the configured address, used in labels, spans and logs
	base string // URL prefix, e.g. "http://10.0.0.7:8080"
	hc   *http.Client
	br   *breaker

	dispatched *metrics.Counter
	failures   *metrics.Counter
}

// coordinator fans simulation points out to worker daemons over the
// ordinary HTTP API, with the failure handling a long sweep needs to
// survive real machines: each point goes to one worker at a time,
// with bounded retries and jittered exponential backoff on transient
// classes, and a per-worker circuit breaker (see breaker.go) that
// ejects flapping replicas and re-admits them via readiness probes.
//
// The coordinator never simulates locally; its local result cache
// (including the durable tier) sits in front of it, so repeated
// sweeps over overlapping grids still dispatch each point at most
// once.
type coordinator struct {
	workers []*workerClient
	cursor  atomic.Uint64 // round-robin pick state

	// Tunables, set to defaults by newCoordinator; tests shrink the
	// durations to keep wall-clock time down.
	maxRetries   int           // retries after the first attempt
	backoffBase  time.Duration // first retry wait; doubles per retry
	backoffCap   time.Duration
	pollEvery    time.Duration // job-document poll cadence
	probeEvery   time.Duration // readiness-probe loop cadence
	probeTimeout time.Duration

	log *slog.Logger

	retries      *metrics.Counter
	trips        *metrics.Counter
	readmissions *metrics.Counter
	pointsFailed *metrics.Counter
}

// newCoordinator builds a coordinator over the given worker base
// URLs, registering its instruments in reg. Call probeLoop on a
// goroutine to enable breaker re-admission.
func newCoordinator(addrs []string, reg *metrics.Registry, log *slog.Logger) *coordinator {
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	co := &coordinator{
		maxRetries:   2,
		backoffBase:  100 * time.Millisecond,
		backoffCap:   2 * time.Second,
		pollEvery:    25 * time.Millisecond,
		probeEvery:   time.Second,
		probeTimeout: 2 * time.Second,
		log:          log,

		retries:      reg.Counter("ringmeshd_coord_retries_total", metrics.Labels{}),
		trips:        reg.Counter("ringmeshd_coord_breaker_trips_total", metrics.Labels{}),
		readmissions: reg.Counter("ringmeshd_coord_readmissions_total", metrics.Labels{}),
		pointsFailed: reg.Counter("ringmeshd_coord_points_failed_total", metrics.Labels{}),
	}
	for _, addr := range addrs {
		w := &workerClient{
			name:       addr,
			base:       addr,
			hc:         &http.Client{},
			br:         newBreaker(3, 2*time.Second),
			dispatched: reg.Counter("ringmeshd_coord_worker_dispatches_total", metrics.Labels{Node: addr}),
			failures:   reg.Counter("ringmeshd_coord_worker_failures_total", metrics.Labels{Node: addr}),
		}
		reg.Gauge("ringmeshd_coord_worker_admitted", metrics.Labels{Node: addr}, func() float64 {
			if w.br.admitted() {
				return 1
			}
			return 0
		})
		co.workers = append(co.workers, w)
	}
	return co
}

// probeLoop periodically health-probes workers whose breaker is open
// and re-admits the ones that answer, until ctx is done. Run it on
// its own goroutine.
func (co *coordinator) probeLoop(ctx context.Context) {
	t := time.NewTicker(co.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, w := range co.workers {
			if !w.br.probeDue() {
				continue
			}
			if w.br.probeResult(co.probe(ctx, w)) {
				co.readmissions.Inc()
				co.log.Info("worker re-admitted", "worker", w.name)
			}
		}
	}
}

// probe asks one worker's /readyz whether it is accepting work —
// readiness, not liveness: a draining worker is alive but must
// not be re-admitted for dispatch yet.
func (co *coordinator) probe(ctx context.Context, w *workerClient) bool {
	pctx, cancel := context.WithTimeout(ctx, co.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, w.base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// pick returns the next admitted worker round-robin. With every
// breaker open it reports a transient "unavailable" dispatch error —
// retried with backoff, during which the probe loop may re-admit
// someone.
func (co *coordinator) pick() (*workerClient, error) {
	n := len(co.workers)
	start := int(co.cursor.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		w := co.workers[(start+i)%n]
		if w.br.admitted() {
			return w, nil
		}
	}
	return nil, &dispatchError{
		class: "unavailable", status: http.StatusServiceUnavailable, transient: true,
		err: errors.New("no admitted workers (all circuit breakers open)"),
	}
}

// backoff returns the jittered wait before retry attempt (1-based):
// exponential in the attempt, capped, with ±50% jitter so replicas
// retrying the same dead worker don't stampede in lockstep.
func (co *coordinator) backoff(attempt int) time.Duration {
	d := co.backoffBase << (attempt - 1)
	if d > co.backoffCap {
		d = co.backoffCap
	}
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// runPoint obtains one point's result from the worker fleet: dispatch
// it to one admitted worker, classify, retry transient failures with
// jittered backoff, give up on deterministic ones. It returns the
// result, the number of attempts consumed (for SweepPoint.Attempts),
// and the terminal error if every attempt failed.
func (co *coordinator) runPoint(ctx context.Context, cfg ringmesh.Config, opt ringmesh.RunOptions, tr *obs.Trace) (ringmesh.Result, int, error) {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			co.retries.Inc()
			select {
			case <-time.After(co.backoff(attempt)):
			case <-ctx.Done():
				return ringmesh.Result{}, attempt, &dispatchError{
					class: "canceled", status: http.StatusServiceUnavailable,
					transient: true, err: ctx.Err(),
				}
			}
		}
		res, err := co.dispatch(ctx, cfg, opt, tr, attempt)
		if err == nil {
			return res, attempt + 1, nil
		}
		var de *dispatchError
		if !errors.As(err, &de) || !de.transient || ctx.Err() != nil || attempt >= co.maxRetries {
			return ringmesh.Result{}, attempt + 1, err
		}
	}
}

// dispatch submits one run to the next admitted worker and sees it
// through to a terminal job state, recording a span per dispatch so
// retries are visible in the job trace.
func (co *coordinator) dispatch(ctx context.Context, cfg ringmesh.Config, opt ringmesh.RunOptions, tr *obs.Trace, attempt int) (ringmesh.Result, error) {
	w, err := co.pick()
	if err != nil {
		return ringmesh.Result{}, err
	}
	w.dispatched.Inc()
	start := time.Now()
	res, err := co.dispatchRaw(ctx, w, cfg, opt)
	outcome := "ok"
	if err != nil {
		w.failures.Inc()
		outcome = "error"
		var de *dispatchError
		if errors.As(err, &de) {
			outcome = de.class
		}
	}
	tr.Record(obs.SpanRecord{Name: "dispatch", Start: start, Dur: time.Since(start), Attrs: []obs.Attr{
		{Key: "worker", Value: w.name},
		{Key: "attempt", Value: fmt.Sprintf("%d", attempt)},
		{Key: "outcome", Value: outcome},
	}})
	return res, err
}

// dispatchRaw is the wire protocol of one dispatch: POST the run,
// then poll the job document to a terminal state. Breaker accounting
// happens here: transport failures and submit-path 5xxs count against
// the worker's breaker; job-level failures do not (the worker's HTTP
// service demonstrably works — the taxonomy decides retrying, not
// ejection).
func (co *coordinator) dispatchRaw(ctx context.Context, w *workerClient, cfg ringmesh.Config, opt ringmesh.RunOptions) (ringmesh.Result, error) {
	rr := runRequest{Config: cfg, Options: &opt}
	// End-to-end propagation: the dispatched run inherits the job's
	// class on the worker's own admission queues, and whatever remains
	// of the deadline becomes the worker's budget for this point.
	if c, ok := classFromCtx(ctx); ok {
		rr.Class = c.String()
	}
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl).Milliseconds()
		if rem < 1 {
			rem = 1 // let the worker reject it with its own taxonomy
		}
		rr.DeadlineMS = rem
	}
	body, err := json.Marshal(rr)
	if err != nil {
		return ringmesh.Result{}, &dispatchError{worker: w.name, class: "protocol",
			status: http.StatusInternalServerError, err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return ringmesh.Result{}, &dispatchError{worker: w.name, class: "protocol",
			status: http.StatusInternalServerError, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ringmesh.Result{}, &dispatchError{worker: w.name, class: "canceled",
				status: http.StatusServiceUnavailable, transient: true, err: ctx.Err()}
		}
		co.breakerFailure(w)
		return ringmesh.Result{}, &dispatchError{worker: w.name, class: "connect",
			status: http.StatusBadGateway, transient: true, err: err}
	}
	raw, view, derr := co.readJobView(w, resp)
	if derr != nil {
		return ringmesh.Result{}, derr
	}
	switch resp.StatusCode {
	case http.StatusOK:
		// Served synchronously from the worker's cache.
		w.br.success()
		if view.Result == nil {
			return ringmesh.Result{}, &dispatchError{worker: w.name, class: "protocol",
				status: http.StatusBadGateway, transient: true,
				err: fmt.Errorf("200 with no result: %.200s", raw)}
		}
		return *view.Result, nil
	case http.StatusAccepted:
		w.br.success()
		return co.pollJob(ctx, w, view.ID)
	case http.StatusServiceUnavailable, http.StatusGatewayTimeout, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusTooManyRequests:
		// Submit rejected: queue full, draining, overloaded. Transient —
		// and evidence about the worker's health, so the breaker hears
		// about it (except 429, which is policy, not sickness).
		if resp.StatusCode != http.StatusTooManyRequests {
			co.breakerFailure(w)
		}
		return ringmesh.Result{}, &dispatchError{worker: w.name, class: "rejected",
			status: resp.StatusCode, transient: true,
			err: fmt.Errorf("submit rejected (%d): %.200s", resp.StatusCode, raw)}
	default:
		// 400/422-class: the request is the problem, not the worker.
		// Deterministic — never retried.
		w.br.success()
		return ringmesh.Result{}, &dispatchError{worker: w.name, class: "config",
			status: resp.StatusCode,
			err:    fmt.Errorf("submit refused (%d): %.200s", resp.StatusCode, raw)}
	}
}

// readJobView decodes a response body into a job document.
func (co *coordinator) readJobView(w *workerClient, resp *http.Response) ([]byte, JobView, *dispatchError) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		co.breakerFailure(w)
		return nil, JobView{}, &dispatchError{worker: w.name, class: "connect",
			status: http.StatusBadGateway, transient: true, err: err}
	}
	var view JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &view); err != nil {
			co.breakerFailure(w)
			return raw, view, &dispatchError{worker: w.name, class: "protocol",
				status: http.StatusBadGateway, transient: true,
				err: fmt.Errorf("bad job document: %v (%.200s)", err, raw)}
		}
	}
	return raw, view, nil
}

// pollJob follows an accepted job to its terminal state. A worker
// that dies mid-job (kill -9) surfaces here as a poll transport error:
// transient, breaker-counted, and the point is retried elsewhere.
func (co *coordinator) pollJob(ctx context.Context, w *workerClient, id string) (ringmesh.Result, error) {
	t := time.NewTicker(co.pollEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ringmesh.Result{}, &dispatchError{worker: w.name, class: "canceled",
				status: http.StatusServiceUnavailable, transient: true, err: ctx.Err()}
		case <-t.C:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/jobs/"+id, nil)
		if err != nil {
			return ringmesh.Result{}, &dispatchError{worker: w.name, class: "protocol",
				status: http.StatusInternalServerError, err: err}
		}
		resp, err := w.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ringmesh.Result{}, &dispatchError{worker: w.name, class: "canceled",
					status: http.StatusServiceUnavailable, transient: true, err: ctx.Err()}
			}
			co.breakerFailure(w)
			return ringmesh.Result{}, &dispatchError{worker: w.name, class: "connect",
				status: http.StatusBadGateway, transient: true,
				err: fmt.Errorf("lost job %s: %w", id, err)}
		}
		raw, view, derr := co.readJobView(w, resp)
		if derr != nil {
			return ringmesh.Result{}, derr
		}
		if resp.StatusCode != http.StatusOK {
			co.breakerFailure(w)
			return ringmesh.Result{}, &dispatchError{worker: w.name, class: "protocol",
				status: http.StatusBadGateway, transient: true,
				err: fmt.Errorf("poll job %s: %d: %.200s", id, resp.StatusCode, raw)}
		}
		switch view.State {
		case JobDone:
			w.br.success()
			if view.Result == nil {
				return ringmesh.Result{}, &dispatchError{worker: w.name, class: "protocol",
					status: http.StatusBadGateway, transient: true,
					err: fmt.Errorf("job %s done with no result", id)}
			}
			return *view.Result, nil
		case JobFailed:
			// The worker's HTTP service is healthy; the job failed with a
			// classified error. Canceled (worker draining), timeout,
			// deadline (this worker's remaining budget ran out — another
			// may be faster) and shed (this worker evicted it under load)
			// are attempt-scoped and retried elsewhere; config, stall and
			// runtime (model panic) are deterministic and are not.
			w.br.success()
			je := view.Error
			if je == nil {
				je = &JobError{Status: http.StatusInternalServerError, Kind: "runtime",
					Message: "job failed with no error document"}
			}
			transient := je.Kind == "canceled" || je.Kind == "timeout" ||
				je.Kind == "deadline" || je.Kind == "shed"
			return ringmesh.Result{}, &dispatchError{worker: w.name, class: je.Kind,
				status:    je.Status,
				transient: transient,
				err:       errors.New(je.Message)}
		}
	}
}

// breakerFailure feeds a health-relevant failure to a worker's
// breaker, counting the trip exactly once when it opens.
func (co *coordinator) breakerFailure(w *workerClient) {
	if w.br.failure() {
		co.trips.Inc()
		co.log.Warn("worker ejected (circuit breaker open)", "worker", w.name)
	}
}
