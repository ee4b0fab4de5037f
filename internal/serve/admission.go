package serve

import (
	"fmt"
	"sync"
	"time"

	"ringmesh/internal/metrics"
)

// shedError reports a submission refused at the queue bound; the HTTP
// layer answers it 503 with Retry-After.
type shedError struct{ bound int }

func (e *shedError) Error() string {
	return fmt.Sprintf("serve: job shed: queue full (%d)", e.bound)
}

// admitter is the admission layer: one FIFO under one bound. An
// arrival at the bound is shed, and nothing queued is ever evicted.
// Safe for concurrent use.
type admitter struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*job
	max    int
	closed bool
}

// newAdmitter builds an admitter that holds at most bound jobs.
func newAdmitter(bound int) *admitter {
	a := &admitter{max: bound}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// depth reports the number of queued jobs.
func (a *admitter) depth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

// enqueue admits j at the back of the queue, or reports why not.
func (a *admitter) enqueue(j *job) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return errDraining
	}
	if len(a.queue) >= a.max {
		return &shedError{bound: a.max}
	}
	a.queue = append(a.queue, j)
	a.cond.Signal()
	return nil
}

// forceEnqueue admits j past the bound — the journal-replay path:
// these jobs were admitted before the crash, and re-bouncing them on a
// depth check would turn a restart into silent data loss.
func (a *admitter) forceEnqueue(j *job) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.queue = append(a.queue, j)
	a.cond.Signal()
}

// next blocks until a job is queued and returns the oldest. It returns
// ok=false once the admitter is closed and the queue is empty — the
// worker-pool shutdown signal (queued jobs still drain first, matching
// graceful-drain semantics).
func (a *admitter) next() (j *job, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.queue) == 0 {
		if a.closed {
			return nil, false
		}
		a.cond.Wait()
	}
	j = a.queue[0]
	a.queue[0] = nil
	a.queue = a.queue[1:]
	return j, true
}

// close stops admission and wakes every blocked worker; queued jobs
// are still handed out until the queue is empty.
func (a *admitter) close() {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
	a.cond.Broadcast()
}

// retryAfter advises a shed client how long to back off: the queued
// backlog divided by the worker pool, priced at the mean completed-run
// duration when telemetry has one, clamped to [1s, 30s] so the advice
// is never absurd in either direction.
func (s *Server) retryAfter(family string) time.Duration {
	mean := 0.5 // seconds; placeholder until telemetry accumulates
	if run := s.histogram("ringmeshd_job_run_seconds",
		metrics.Labels{Family: family, Outcome: "done"}, secondsBuckets); run.Count() > 0 {
		mean = run.Sum() / float64(run.Count())
	}
	backlog := 1 + s.adm.depth()/s.opt.Workers
	d := time.Duration(float64(backlog) * mean * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}
