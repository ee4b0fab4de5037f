package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ringmesh/internal/metrics"
)

// class is a job's priority class. Lower values are more urgent: the
// weighted scheduler drains interactive ahead of batch ahead of
// background, and under saturation the admission layer sheds from the
// highest value (least urgent) class first.
type class uint8

const (
	// classInteractive is a human waiting on the answer: single runs
	// from a terminal or notebook. Default for /v1/runs and /v1/sweeps.
	classInteractive class = iota
	// classBatch is bulk parameter-sweep traffic: many points, nobody
	// blocked on any single one. Default for /v1/batch.
	classBatch
	// classBackground is best-effort work (speculative precomputation,
	// cache warming): first to be shed, last to be scheduled.
	classBackground
	numClasses
)

// String names the class in the API's vocabulary.
func (c class) String() string {
	switch c {
	case classInteractive:
		return "interactive"
	case classBatch:
		return "batch"
	case classBackground:
		return "background"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// parseClass inverts String; the empty string selects def (each
// endpoint has its own default class).
func parseClass(s string, def class) (class, error) {
	switch s {
	case "":
		return def, nil
	case "interactive":
		return classInteractive, nil
	case "batch":
		return classBatch, nil
	case "background":
		return classBackground, nil
	default:
		return 0, fmt.Errorf("unknown class %q (want interactive, batch or background)", s)
	}
}

// defaultClassWeights are the deficit-round-robin shares: per refill
// cycle under full load, 16 interactive jobs run for every 4 batch and
// 1 background. Interactive dominates without starving the rest — a
// queued batch job always runs within one refill cycle.
var defaultClassWeights = [numClasses]int{16, 4, 1}

// shedError reports a submission (or an already-queued victim) shed by
// the admission layer, carrying the class the HTTP layer echoes in the
// structured 503 body.
type shedError struct {
	class  class
	reason string
}

func (e *shedError) Error() string {
	return fmt.Sprintf("serve: %s job shed: %s", e.class, e.reason)
}

// admitter is the priority admission layer: one bounded FIFO per
// class, drained by a deficit-round-robin scheduler. It replaces the
// single job channel so interactive work overtakes queued bulk sweeps
// instead of waiting behind them. Safe for concurrent use.
//
// Bounds are enforced on two axes: a per-class depth (one class can
// never occupy the whole daemon) and a total depth (the admission
// point for load shedding). When the total is reached, an arriving job
// may evict the newest job of a strictly less urgent class — the
// lowest class first — so a batch flood can never wedge out
// interactive submissions; an arriving job with nothing below it is
// shed itself.
type admitter struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queues  [numClasses][]*job
	depths  [numClasses]int
	weights [numClasses]int
	credits [numClasses]int
	total   int
	max     int
	closed  bool
}

// newAdmitter builds the admission layer. total bounds the sum of all
// queues; depths bounds each class (entries < 1 default to total);
// weights below 1 default to defaultClassWeights. Gauges for per-class
// and total depth are registered in reg.
func newAdmitter(total int, depths, weights [numClasses]int, reg *metrics.Registry) *admitter {
	if total < 1 {
		total = 1
	}
	a := &admitter{max: total}
	a.cond = sync.NewCond(&a.mu)
	for c := class(0); c < numClasses; c++ {
		a.depths[c] = depths[c]
		if a.depths[c] < 1 {
			a.depths[c] = total
		}
		a.weights[c] = weights[c]
		if a.weights[c] < 1 {
			a.weights[c] = defaultClassWeights[c]
		}
		a.credits[c] = a.weights[c]
		c := c
		reg.Gauge("ringmeshd_queue_depth", metrics.Labels{Class: c.String()}, func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return float64(len(a.queues[c]))
		})
	}
	return a
}

// depth reports the total number of queued jobs.
func (a *admitter) depth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// enqueue admits j into its class queue, or reports why not. At the
// total bound it sheds the newest job of the lowest non-empty class
// strictly below j's — returned as victim so the caller can fail it
// and journal the eviction. The newest is chosen over the oldest
// because it has the least queue time invested and its submitter is
// the most likely to still be around to retry.
func (a *admitter) enqueue(j *job) (victim *job, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil, errDraining
	}
	c := j.class
	if len(a.queues[c]) >= a.depths[c] {
		return nil, &shedError{class: c, reason: fmt.Sprintf("class queue full (%d)", a.depths[c])}
	}
	if a.total >= a.max {
		for v := numClasses - 1; int(v) > int(c); v-- {
			if n := len(a.queues[v]); n > 0 {
				victim = a.queues[v][n-1]
				a.queues[v][n-1] = nil
				a.queues[v] = a.queues[v][:n-1]
				a.total--
				break
			}
		}
		if victim == nil {
			return nil, &shedError{class: c, reason: fmt.Sprintf("queue full (%d) with nothing less urgent to shed", a.max)}
		}
	}
	a.queues[c] = append(a.queues[c], j)
	a.total++
	a.cond.Signal()
	return victim, nil
}

// forceEnqueue admits j past every bound — the journal-replay path:
// these jobs were admitted before the crash, and re-bouncing them on a
// depth check would turn a restart into silent data loss.
func (a *admitter) forceEnqueue(j *job) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.queues[j.class] = append(a.queues[j.class], j)
	a.total++
	a.cond.Signal()
}

// next blocks until a job is schedulable and returns it, choosing the
// class by deficit round robin: each class spends credits (its weight)
// in priority order; when every non-empty class is out of credit, all
// credits refill. Under saturation each class therefore gets its
// weight's share of workers, in priority order within a cycle, and an
// empty class forfeits its share instead of idling the pool. Returns
// ok=false once the admitter is closed and every queue is empty — the
// worker-pool shutdown signal (queued jobs still drain first, matching
// graceful-drain semantics).
func (a *admitter) next() (j *job, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		if a.total == 0 {
			if a.closed {
				return nil, false
			}
			a.cond.Wait()
			continue
		}
		// Two passes: if no non-empty class holds credit, refill every
		// class and go again — the second pass must succeed because some
		// queue is non-empty and weights are >= 1.
		for pass := 0; pass < 2; pass++ {
			for c := class(0); c < numClasses; c++ {
				if len(a.queues[c]) == 0 || a.credits[c] < 1 {
					continue
				}
				a.credits[c]--
				j := a.queues[c][0]
				a.queues[c][0] = nil
				a.queues[c] = a.queues[c][1:]
				a.total--
				return j, true
			}
			for c := class(0); c < numClasses; c++ {
				a.credits[c] = a.weights[c]
			}
		}
	}
}

// close stops admission and wakes every blocked worker; queued jobs
// are still handed out until the queues are empty.
func (a *admitter) close() {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
	a.cond.Broadcast()
}

// classDepths snapshots per-class queue depths for the readiness
// document.
func (a *admitter) classDepths() map[string]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int, numClasses)
	for c := class(0); c < numClasses; c++ {
		out[c.String()] = len(a.queues[c])
	}
	return out
}

// classCtxKey carries a job's class down the execution context, so the
// coordinator can forward it to dispatched workers without widening
// every signature on the dispatch path.
type classCtxKey struct{}

func ctxWithClass(ctx context.Context, c class) context.Context {
	return context.WithValue(ctx, classCtxKey{}, c)
}

func classFromCtx(ctx context.Context) (class, bool) {
	c, ok := ctx.Value(classCtxKey{}).(class)
	return c, ok
}

// costMinObs is how many computed points of a network the per-point
// duration histogram must hold before the admission-time deadline
// feasibility check trusts its p95; below it, optimistic admission
// (the in-queue expiry check still catches doomed jobs).
const costMinObs = 8

// estimateCost predicts a job's end-to-end time from the telemetry the
// daemon already collects: the p95 queue wait of its family plus, for
// every point, the p95 duration of one computed point of that point's
// network. ok=false (some network not observed enough yet) means "no
// idea" — admit optimistically.
func (s *Server) estimateCost(j *job) (time.Duration, bool) {
	var est float64
	for _, p := range j.points {
		h := s.histogram("ringmeshd_point_run_seconds",
			metrics.Labels{Family: p.cfg.Network}, pointBuckets)
		if h.Count() < costMinObs {
			return 0, false
		}
		est += h.Quantile(0.95)
	}
	if wait := s.histogram("ringmeshd_job_queue_wait_seconds",
		metrics.Labels{Family: j.family}, secondsBuckets); wait.Count() > 0 {
		est += wait.Quantile(0.95)
	}
	return time.Duration(est * float64(time.Second)), true
}

// retryAfter advises a shed or rate-limited client how long to back
// off: the queued backlog divided by the worker pool, priced at the
// mean completed-run duration when telemetry has one, clamped to
// [1s, 30s] so the advice is never absurd in either direction.
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
