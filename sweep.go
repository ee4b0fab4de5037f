package ringmesh

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"ringmesh/internal/pool"
	"ringmesh/internal/rng"
)

// SweepPoint is one measurement of a size sweep.
type SweepPoint struct {
	// Nodes is the processor count of this point.
	Nodes int `json:"nodes"`
	// Topology is the resolved geometry in the model's notation
	// ("2:3:4" for rings, "8x8" for meshes).
	Topology string `json:"topology"`
	// Result holds the measurements.
	Result Result `json:"result"`
	// Attempts is how many runs this point took (1 = first try).
	// Retries re-run the point on a seed derived from (base seed,
	// size, attempt), so a retried point is still reproducible.
	Attempts int `json:"attempts"`
}

// SweepOptions controls sweep execution.
type SweepOptions struct {
	// Run is the per-point measurement schedule.
	Run RunOptions
	// Workers bounds concurrent simulations. Zero (the zero value, not
	// DefaultSweepOptions' 4) means 1: the sweep runs serially. Values
	// below zero behave like zero.
	Workers int
	// Telemetry, when non-nil, receives one JSON line per completed
	// point as it finishes (summary latency, throughput and
	// utilization — see sweepTelemetry). Lines arrive in completion
	// order, not size order; writes are serialized, so any io.Writer
	// is safe.
	Telemetry io.Writer
	// PointTimeout bounds each point's wall-clock time (0 = none).
	// It fills Run.Timeout when that is unset; a timed-out point is
	// retried like any other runtime failure.
	PointTimeout time.Duration
	// Retries is how many times a point that failed at run time
	// (timeout, stall with FailOnStall, model panic) is re-run before
	// its failure is recorded. Each retry uses a fresh seed derived
	// from the base seed so a transient pathology is not replayed
	// bit-for-bit. Configuration errors are never retried.
	Retries int
	// RetryBackoff is the wait before the first retry; it doubles on
	// each subsequent one (0 = retry immediately).
	RetryBackoff time.Duration
}

// sweepTelemetry is the per-point summary emitted on
// SweepOptions.Telemetry.
type sweepTelemetry struct {
	Nodes        int       `json:"nodes"`
	Topology     string    `json:"topology"`
	Latency      float64   `json:"latency_cycles"`
	LatencyCI95  float64   `json:"latency_ci95"`
	Throughput   float64   `json:"throughput"`
	RingUtil     []float64 `json:"ring_util,omitempty"`
	MeshUtil     float64   `json:"mesh_util,omitempty"`
	Observations int64     `json:"observations"`
	Saturated    bool      `json:"saturated,omitempty"`
	Stalled      bool      `json:"stalled,omitempty"`
	Attempts     int       `json:"attempts,omitempty"`
}

// DefaultSweepOptions pairs the default run schedule with modest
// parallelism.
func DefaultSweepOptions() SweepOptions {
	return SweepOptions{Run: DefaultRunOptions(), Workers: 4}
}

// fatalPointError marks a per-point error that should stop the sweep
// from scheduling further points: configuration errors (every size
// would fail the same way) and context cancellation. Runtime
// failures — timeouts, stalls, panics — are not fatal; the point's
// failure is recorded and the remaining sizes still run.
type fatalPointError struct{ err error }

func (e *fatalPointError) Error() string { return e.err.Error() }
func (e *fatalPointError) Unwrap() error { return e.err }

// SweepSizes measures the base configuration at each node count,
// re-deriving the geometry per size (base.Topology is ignored; rings
// use the Table 2 methodology, meshes take the square root). Points
// come back sorted by size.
//
// Failure handling: a configuration error stops new points from being
// scheduled (every size would fail the same way), while a runtime
// failure — timeout, stall with FailOnStall, model panic — is retried
// per opt.Retries and, once exhausted, recorded without disturbing
// the remaining sizes. Either way the completed points are returned,
// alongside an error joining every per-point failure (errors.Join).
func SweepSizes(base Config, sizes []int, opt SweepOptions) ([]SweepPoint, error) {
	return SweepSizesContext(context.Background(), base, sizes, opt)
}

// SweepSizesContext is SweepSizes with cancellation: when ctx is
// done, in-flight points abort at their next cycle chunk, no new
// points start, and the completed points come back with an error
// wrapping ctx.Err().
func SweepSizesContext(ctx context.Context, base Config, sizes []int, opt SweepOptions) ([]SweepPoint, error) {
	return sweep(ctx, sizes, opt, func(ctx context.Context, n int) (SweepPoint, error) {
		return sweepPoint(ctx, base, n, opt)
	})
}

// sweepPoint runs one size with the retry schedule. Attempt 0 uses
// the base seed unchanged — a sweep without failures is bit-identical
// to one run point by point — and each retry derives a fresh seed
// from (base seed, size, attempt).
func sweepPoint(ctx context.Context, base Config, n int, opt SweepOptions) (SweepPoint, error) {
	for attempt := 0; ; attempt++ {
		cfg := base
		cfg.Topology = ""
		cfg.Nodes = n
		// Engine-level workers (base.Workers) multiply with the sweep's
		// own pool, so cap them to the share of the machine each point
		// actually gets: sweep workers x engine workers never exceeds
		// NumCPU. Results are unchanged — Workers is execution-only.
		cfg.Workers = pool.CapInner(runtime.NumCPU(), opt.Workers, cfg.Workers)
		if attempt > 0 {
			cfg.Seed = rng.DeriveSeed(base.Seed, uint64(n)<<8+uint64(attempt))
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			return SweepPoint{}, &fatalPointError{fmt.Errorf("ringmesh: size %d: %w", n, err)}
		}
		ro := opt.Run
		if opt.PointTimeout > 0 && ro.Timeout == 0 {
			ro.Timeout = opt.PointTimeout
		}
		res, err := sys.RunContext(ctx, ro)
		if err == nil {
			return SweepPoint{Nodes: n, Topology: sys.Topology(), Result: res, Attempts: attempt + 1}, nil
		}
		if ctx.Err() != nil {
			return SweepPoint{}, &fatalPointError{fmt.Errorf("ringmesh: size %d: %w", n, err)}
		}
		if attempt >= opt.Retries {
			return SweepPoint{}, fmt.Errorf("ringmesh: size %d failed after %d attempt(s): %w",
				n, attempt+1, err)
		}
		if d := opt.RetryBackoff << attempt; d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return SweepPoint{}, &fatalPointError{fmt.Errorf("ringmesh: size %d: %w", n, ctx.Err())}
			case <-t.C:
			}
		}
	}
}

// sweep fans the per-point function out over the shared bounded
// worker pool (internal/pool, also behind exp's point grids and the
// serving daemon's executor). Every error is collected (never just
// the first). Fatal errors — configuration mistakes and cancellation —
// stop new points from being scheduled; runtime failures leave the
// rest of the sweep running. Completed points are always returned,
// even on error.
func sweep(ctx context.Context, sizes []int, opt SweepOptions, point func(context.Context, int) (SweepPoint, error)) ([]SweepPoint, error) {
	var mu sync.Mutex
	var out []SweepPoint
	isFatal := func(err error) bool {
		var fatal *fatalPointError
		return errors.As(err, &fatal)
	}
	errs := pool.ForEach(ctx, opt.Workers, len(sizes), isFatal, func(i int) error {
		n := sizes[i]
		p, err := point(ctx, n)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if opt.Telemetry != nil {
			if terr := writeTelemetry(opt.Telemetry, p); terr != nil {
				// A broken telemetry sink poisons every later point the
				// same way: fatal, like a configuration error.
				return &fatalPointError{fmt.Errorf("ringmesh: telemetry: size %d: %w", n, terr)}
			}
		}
		out = append(out, p)
		return nil
	})
	if ctx.Err() != nil && len(errs) == 0 {
		errs = append(errs, fmt.Errorf("ringmesh: sweep canceled: %w", ctx.Err()))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Nodes < out[j].Nodes })
	if len(errs) > 0 {
		// Joined in message order so the report is stable regardless
		// of which worker finished first.
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		return out, errors.Join(errs...)
	}
	return out, nil
}

// writeTelemetry emits one JSON line summarizing a finished sweep
// point. Called with the sweep mutex held.
func writeTelemetry(w io.Writer, p SweepPoint) error {
	attempts := p.Attempts
	if attempts == 1 {
		attempts = 0 // omit the unremarkable case from the stream
	}
	line, err := json.Marshal(sweepTelemetry{
		Nodes:        p.Nodes,
		Topology:     p.Topology,
		Latency:      p.Result.LatencyCycles,
		LatencyCI95:  p.Result.LatencyCI95,
		Throughput:   p.Result.Throughput,
		RingUtil:     p.Result.RingUtilization,
		MeshUtil:     p.Result.MeshUtilization,
		Observations: p.Result.Observations,
		Saturated:    p.Result.Saturated,
		Stalled:      p.Result.Stalled,
		Attempts:     attempts,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
