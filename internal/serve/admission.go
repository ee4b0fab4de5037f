package serve

import (
	"fmt"
	"time"

	"ringmesh/internal/metrics"
)

// shedError reports a submission refused at the queue bound; the HTTP
// layer answers it 503 with Retry-After.
type shedError struct{ bound int }

func (e *shedError) Error() string {
	return fmt.Sprintf("serve: job shed: queue full (%d)", e.bound)
}

// retryAfter advises a shed client how long to back off: the queued
// backlog divided by the worker pool, priced at the mean completed-run
// duration when telemetry has one, clamped to [1s, 30s] so the advice
// is never absurd in either direction.
func (s *Server) retryAfter(family string) time.Duration {
	mean := 0.5 // seconds; placeholder until telemetry accumulates
	if run := s.reg.Histogram("ringmeshd_job_run_seconds",
		metrics.Labels{Family: family, Outcome: "done"}, secondsBuckets); run.Count() > 0 {
		mean = run.Sum() / float64(run.Count())
	}
	backlog := 1 + len(s.queue)/s.opt.Workers
	d := time.Duration(float64(backlog) * mean * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}
