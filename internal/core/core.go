// Package core assembles processing modules and a network into a
// runnable system and drives it with the paper's output-analysis
// method: batch means with the first batch discarded.
//
// The assembly is topology-agnostic: NewSystem resolves the requested
// interconnect through the network registry, so ring, mesh and any
// future model share one construction, run and measurement pipeline.
//
// The registration order is fixed — PMs first, then the network — so
// within a tick every PM's commit (miss generation, memory service)
// precedes the network's commit (injection pickup, flit movement,
// delivery). This makes runs bit-for-bit reproducible for a given
// seed.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"ringmesh/internal/fault"
	"ringmesh/internal/metrics"
	"ringmesh/internal/network"
	"ringmesh/internal/node"
	"ringmesh/internal/obs"
	"ringmesh/internal/sim"
	"ringmesh/internal/stats"
	"ringmesh/internal/trace"
	"ringmesh/internal/workload"
)

// System is a complete simulated multiprocessor.
type System struct {
	engine *sim.Engine
	col    *node.Collector
	pms    []*node.PM
	net    network.Model

	metrics  *metrics.Registry
	sampler  *metrics.Sampler
	userHook func(now int64, moved uint64)

	ticksPerCycle int64
	pmCount       int
	workloadC     float64
	desc          string
	topology      string
}

// SystemConfig configures a system over any registered interconnect.
type SystemConfig struct {
	// Network is the registered topology name ("ring", "mesh", ...).
	Network string
	// Net is the topology-agnostic network configuration.
	Net network.Config
	// Workload is the M-MRP attribute set.
	Workload workload.MMRP
	// MemLatency is the memory service time in PM cycles (0 = default).
	MemLatency int
	// Seed makes runs reproducible.
	Seed uint64
	// Histogram, when true, also collects the full latency
	// distribution so Result can report percentiles.
	Histogram bool
	// Tracer optionally records per-packet lifecycle events.
	Tracer *trace.Recorder
	// Metrics, when non-nil, receives the network model's instruments
	// (per-link utilization, queue occupancy, stall counters); see
	// network.Model.DescribeMetrics. Instrumentation is
	// observation-only and never changes simulation results.
	Metrics *metrics.Registry
	// MetricsInterval, when > 0 together with Metrics, attaches a
	// time-series sampler snapshotting every MetricsInterval PM clock
	// cycles (see System.Sampler). The sampler is reset when the
	// warmup batch is discarded, so its rows cover the measured
	// interval.
	MetricsInterval int64
	// FaultPlan, when non-nil, is installed into the network before
	// the first tick (network.Model.ApplyFaultPlan). An empty plan
	// exercises the subsystem without scheduling anything and leaves
	// results bit-identical to a nil plan.
	FaultPlan *fault.Plan
	// Workers, when > 1, runs the tick loop across a goroutine pool if
	// the network model partitions itself (see network.Model.Partition
	// and internal/core/parallel.go; the mesh does, the rings decline).
	// Execution-only: any worker count produces results bit-identical
	// to Workers <= 1, so Workers never enters result cache keys. Falls
	// back to the serial engine when the model declines to partition or
	// a tracer is attached.
	Workers int
	// PhaseStats, when true together with Workers > 1, times each
	// shard's compute/commit phases and each worker's barrier waits
	// (see System.PhaseStats). Observation-only like Metrics: the
	// schedule and results are bit-identical with it on or off, so it
	// never enters result cache keys. Ignored on the serial path.
	PhaseStats bool
}

// NewSystem builds a multiprocessor around any registered
// interconnect model.
func NewSystem(cfg SystemConfig) (*System, error) {
	plan, err := network.New(cfg.Network, cfg.Net)
	if err != nil {
		return nil, err
	}
	return NewSystemOn(plan, cfg)
}

// NewSystemOn is NewSystem for a caller that already resolved the
// geometry: plan must be what network.New returns for cfg.Network and
// cfg.Net.
func NewSystemOn(plan *network.Plan, cfg SystemConfig) (*System, error) {
	if err := cfg.Workload.Validate(); err != nil {
		return nil, err
	}
	pattern, err := plan.Locality(cfg.Workload.R)
	if err != nil {
		return nil, err
	}
	tpc := plan.TicksPerCycle
	s := &System{
		engine:        &sim.Engine{},
		col:           node.NewCollector(tpc),
		ticksPerCycle: tpc,
		pmCount:       plan.PMs,
		workloadC:     cfg.Workload.C,
		desc:          plan.Description,
		topology:      plan.Topology,
	}
	if cfg.Histogram {
		s.col.Hist = stats.NewHistogram(4096, 1)
	}
	if cfg.Metrics != nil {
		// Export the round-trip latency distribution (PM cycles) as a
		// Prometheus histogram: log buckets 4..32768 cover everything
		// from an L2-adjacent hit to a deeply saturated hierarchy.
		s.col.LatHist = cfg.Metrics.Histogram("latency_cycles",
			metrics.Labels{}, metrics.ExpBuckets(4, 2, 14))
	}
	ports := make([]node.Port, plan.PMs)
	for id := 0; id < plan.PMs; id++ {
		pm, err := node.NewPM(id, node.Config{
			Workload:   cfg.Workload,
			Pattern:    pattern,
			Sizing:     plan.Sizing,
			LineBytes:  cfg.Net.LineBytes,
			MemLatency: cfg.MemLatency,
			Seed:       cfg.Seed,
			Tracer:     cfg.Tracer,
		}, s.col)
		if err != nil {
			return nil, err
		}
		s.pms = append(s.pms, pm)
		ports[id] = pm
		s.engine.Register(pm, tpc)
	}
	model, err := plan.Build(ports, s.engine)
	if err != nil {
		return nil, err
	}
	model.SetTracer(cfg.Tracer)
	if cfg.FaultPlan != nil {
		// Before DescribeMetrics, so the model can attach its
		// fault-event counter to the installed schedule.
		if err := model.ApplyFaultPlan(cfg.FaultPlan); err != nil {
			return nil, err
		}
	}
	model.DescribeMetrics(cfg.Metrics)
	s.metrics = cfg.Metrics
	if cfg.Metrics != nil && cfg.MetricsInterval > 0 {
		s.sampler = metrics.NewSampler(cfg.Metrics, cfg.MetricsInterval*tpc, nil)
	}
	s.net = model
	s.engine.Register(model, 1)
	s.engine.InFlight = s.col.InFlight
	engine := s.engine
	s.engine.Diagnose = func() *sim.StallReport { return model.BuildStallReport(engine.Now()) }
	if err := s.applyParallel(cfg); err != nil {
		return nil, err
	}
	s.wireOnCycle()
	return s, nil
}

// wireOnCycle installs the engine per-tick hook, composing the
// metrics sampler with the user hook (either may be absent; both nil
// leaves the engine hook nil, the zero-overhead path).
func (s *System) wireOnCycle() {
	samp, user := s.sampler, s.userHook
	switch {
	case samp != nil && user != nil:
		s.engine.OnCycle = func(now int64, moved uint64) {
			samp.OnCycle(now, moved)
			user(now, moved)
		}
	case samp != nil:
		s.engine.OnCycle = samp.OnCycle
	case user != nil:
		s.engine.OnCycle = user
	default:
		s.engine.OnCycle = nil
	}
}

// OnCycle sets the user per-tick observability hook (nil detaches).
// It composes with the metrics sampler, so both can observe every
// tick.
func (s *System) OnCycle(f func(now int64, moved uint64)) {
	s.userHook = f
	s.wireOnCycle()
}

// Engine exposes the cycle engine (for tests and for attaching the
// per-cycle observability hook; see sim.Engine.OnCycle).
func (s *System) Engine() *sim.Engine { return s.engine }

// Metrics returns the instrument registry the system was built with
// (nil when metrics are disabled).
func (s *System) Metrics() *metrics.Registry { return s.metrics }

// Sampler returns the attached metrics time-series sampler (nil
// unless the system was built with Metrics and MetricsInterval).
func (s *System) Sampler() *metrics.Sampler { return s.sampler }

// PhaseStats returns the parallel engine's phase-timing accumulator
// (nil unless the system was built with Workers > 1, PhaseStats set,
// and the model partitioned itself). Read only after a run completes.
func (s *System) PhaseStats() *obs.PhaseStats { return s.engine.PhaseStats() }

// TicksPerCycle returns engine ticks per PM clock cycle (2 on
// double-speed-global configurations, else 1).
func (s *System) TicksPerCycle() int64 { return s.ticksPerCycle }

// PMs returns the number of processing modules.
func (s *System) PMs() int { return s.pmCount }

// Describe returns a human-readable system summary.
func (s *System) Describe() string { return s.desc }

// Topology returns the canonical resolved topology (e.g. "3:3:8",
// "8x8").
func (s *System) Topology() string { return s.topology }

// StepCycles advances the system by n PM clock cycles.
func (s *System) StepCycles(n int64) error {
	return s.engine.Run(n * s.ticksPerCycle)
}

// Close releases the engine's worker goroutines (parallel mode; no-op
// otherwise). Run/RunCtx already release them on return, so Close only
// matters for callers driving the system through StepCycles.
func (s *System) Close() { s.engine.CloseWorkers() }

// DefaultWatchdogCycles is the stall-detection horizon a RunConfig with
// WatchdogCycles 0 runs under. The facade's cache key resolves the
// same zero through this constant, so the two cannot disagree.
const DefaultWatchdogCycles = 20000

// RunConfig controls the batch-means run.
type RunConfig struct {
	// WarmupCycles is the discarded first batch, in PM cycles.
	WarmupCycles int64
	// BatchCycles is the length of each retained batch.
	BatchCycles int64
	// Batches is the number of retained batches.
	Batches int
	// WatchdogCycles is the stall-detection horizon (0 =
	// DefaultWatchdogCycles).
	WatchdogCycles int64
	// Timeout bounds the run's wall-clock time; exceeding it aborts
	// with an error wrapping ErrTimeout (0 = no limit). The deadline
	// is checked between 1024-cycle chunks, so simulation results are
	// unaffected for runs that finish in time.
	Timeout time.Duration
	// FailOnStall turns a watchdog trip into a returned error (the
	// model's *sim.StallError when it can diagnose itself) instead of
	// the default Result.Stalled marker that lets sweeps plot
	// saturation points.
	FailOnStall bool
}

// DefaultRunConfig returns run lengths that give tight confidence
// intervals for the paper's operating points in a few tens of
// milliseconds per point.
func DefaultRunConfig() RunConfig {
	return RunConfig{WarmupCycles: 4000, BatchCycles: 4000, Batches: 8}
}

// QuickRunConfig returns shortened lengths for smoke tests and
// benchmarks.
func QuickRunConfig() RunConfig {
	return RunConfig{WarmupCycles: 1000, BatchCycles: 1000, Batches: 4}
}

// Validate range-checks the schedule, in the facade's wire names: the
// one rule behind System.Run, the facade, the daemon's admission and the
// command line. A negative watchdog horizon or timeout is rejected, not
// read as "off": the engine arms either only when positive, so a
// stalled run would otherwise burn its whole schedule.
func (rc RunConfig) Validate() error {
	switch {
	case rc.WarmupCycles < 0:
		return fmt.Errorf("warmup_cycles %d < 0", rc.WarmupCycles)
	case rc.BatchCycles < 1:
		return fmt.Errorf("batch_cycles %d < 1", rc.BatchCycles)
	case rc.Batches < 1:
		return fmt.Errorf("batches %d < 1", rc.Batches)
	case rc.WatchdogCycles < 0:
		return fmt.Errorf("watchdog_cycles %d < 0", rc.WatchdogCycles)
	case rc.Timeout < 0:
		return fmt.Errorf("timeout_ns %d < 0", rc.Timeout)
	default:
		return nil
	}
}

// Result summarizes one simulation run.
type Result struct {
	// Latency is the average round-trip access latency in PM clock
	// cycles (the paper's primary metric).
	Latency float64
	// LatencyCI is the 95% confidence half-width on Latency.
	LatencyCI float64
	// Observations is the number of completed transactions measured.
	Observations int64
	// RingUtil is per-level ring utilization in [0,1] (index 0 =
	// global ring); nil for flat (mesh-like) systems.
	RingUtil []float64
	// MeshUtil is aggregate inter-router link utilization in [0,1];
	// zero for hierarchical (ring-like) systems.
	MeshUtil float64
	// Throughput is completed transactions per PM cycle (whole
	// system).
	Throughput float64
	// Issued, Completed, Local are transaction counts over the whole
	// run (including warmup).
	Issued, Completed, Local int64
	// LatencyP50, LatencyP95, LatencyP99 and LatencyMax describe the
	// latency distribution when the system was built with Histogram
	// set (zero otherwise).
	LatencyP50, LatencyP95, LatencyP99, LatencyMax float64
	// BatchesCorrelated flags strong lag-1 autocorrelation among batch
	// means (|r| > 0.5): the batches are too short relative to the
	// system's time constants and LatencyCI understates uncertainty.
	BatchesCorrelated bool
	// Stalled is set when the deadlock watchdog tripped; the other
	// fields then describe the run up to the stall.
	Stalled bool
	// Stall carries the model's forensic snapshot when Stalled is set
	// and the model's BuildStallReport produced one; nil otherwise.
	Stall *sim.StallReport
	// Saturated is set when processors spent most of their time
	// blocked on the T-window: the realized miss-generation rate fell
	// below half the configured rate C, so the network is past its
	// saturation point and the latency estimate understates open-loop
	// delay.
	Saturated bool
}

// ErrTimeout marks a run aborted for exceeding RunConfig.Timeout.
var ErrTimeout = errors.New("core: run exceeded its wall-clock timeout")

// PanicError is a model panic recovered at the Run boundary: the
// panic value and stack, plus the network's forensic snapshot when it
// could produce one over its (possibly inconsistent) state.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery time.
	Stack []byte
	// Report is the network's stall report, when one could be built.
	Report *sim.StallReport
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: model panic: %v", e.Value)
}

// runCycles advances n PM cycles in chunks, honouring cancellation
// and the wall-clock deadline between chunks. Chunking is invisible
// to the simulation: the engine steps the same ticks in the same
// order as one long run.
func (s *System) runCycles(ctx context.Context, n int64, deadline time.Time) error {
	const chunkCycles = 1024
	for done := int64(0); done < n; {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: run canceled at tick %d: %w", s.engine.Now(), err)
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return fmt.Errorf("%w (tick %d)", ErrTimeout, s.engine.Now())
		}
		step := n - done
		if step > chunkCycles {
			step = chunkCycles
		}
		if err := s.engine.Run(step * s.ticksPerCycle); err != nil {
			return err
		}
		done += step
	}
	return nil
}

// Run executes warmup plus the configured batches and returns the
// aggregated result. A tripped watchdog sets Stalled (and Stall, when
// the model can diagnose itself) instead of returning an error so
// sweeps can plot saturation points; set RunConfig.FailOnStall to get
// the error instead.
func (s *System) Run(rc RunConfig) (Result, error) {
	return s.RunCtx(context.Background(), rc)
}

// RunCtx is Run with cancellation: ctx aborts the run between cycle
// chunks, RunConfig.Timeout bounds its wall-clock time, and a model
// panic is recovered into a *PanicError instead of crashing the
// caller.
func (s *System) RunCtx(ctx context.Context, rc RunConfig) (res Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The worker gang (parallel mode) is recreated lazily, so releasing
	// it after every run costs nothing on repeat runs and keeps
	// one-shot callers (sweep points, served jobs) leak-free.
	defer s.engine.CloseWorkers()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		pe := &PanicError{Value: r, Stack: debug.Stack()}
		func() {
			// The forensic walk runs over the very state that just
			// panicked; a second panic must not mask the first.
			defer func() { recover() }()
			pe.Report = s.net.BuildStallReport(s.engine.Now())
		}()
		res, err = Result{}, pe
	}()
	if err := rc.Validate(); err != nil {
		return Result{}, err
	}
	wd := rc.WatchdogCycles
	if wd == 0 {
		wd = DefaultWatchdogCycles
	}
	s.engine.WatchdogTicks = wd * s.ticksPerCycle
	var deadline time.Time
	if rc.Timeout > 0 {
		deadline = time.Now().Add(rc.Timeout)
	}

	stalled := false
	var stallErr error
	if err := s.runCycles(ctx, rc.WarmupCycles, deadline); err != nil {
		if !errors.Is(err, sim.ErrStalled) {
			return Result{}, err
		}
		stalled, stallErr = true, err
	}
	s.col.Latency.CloseBatch() // discarded by the batch-means filter
	s.net.ResetUtilization()
	// Warmup-aware metrics reset: counters and sampled series restart
	// with the measured interval, mirroring the batch-means discard.
	s.metrics.Reset()
	s.sampler.Reset()

	if !stalled {
		for b := 0; b < rc.Batches; b++ {
			if err := s.runCycles(ctx, rc.BatchCycles, deadline); err != nil {
				if !errors.Is(err, sim.ErrStalled) {
					return Result{}, err
				}
				stalled, stallErr = true, err
				break
			}
			s.col.Latency.CloseBatch()
		}
	}
	if err := s.net.CheckInvariants(); err != nil {
		return Result{}, err
	}
	if stalled && rc.FailOnStall {
		return Result{}, stallErr
	}

	totalCycles := float64(rc.BatchCycles) * float64(rc.Batches)
	res = Result{
		Latency:      s.col.Latency.Mean(),
		LatencyCI:    s.col.Latency.HalfWidth(),
		Observations: s.col.Latency.Observations(),
		Issued:       s.col.Issued,
		Completed:    s.col.Completed,
		Local:        s.col.Local,
		Stalled:      stalled,
	}
	if stalled {
		var se *sim.StallError
		if errors.As(stallErr, &se) {
			res.Stall = se.Report
		}
	}
	if totalCycles > 0 {
		res.Throughput = float64(res.Observations) / totalCycles
	}
	res.BatchesCorrelated = s.col.Latency.Correlated(0.5)
	if s.col.Hist != nil && s.col.Hist.Count() > 0 {
		res.LatencyP50 = s.col.Hist.Quantile(0.5)
		res.LatencyP95 = s.col.Hist.Quantile(0.95)
		res.LatencyP99 = s.col.Hist.Quantile(0.99)
		res.LatencyMax = s.col.Hist.Quantile(1)
	}
	ns := s.net.Stats()
	res.RingUtil = ns.PerLevel
	res.MeshUtil = ns.Link
	// Saturation: compare realized generation (remote + local misses)
	// against the configured rate C over the whole run including
	// warmup.
	allCycles := float64(rc.WarmupCycles) + totalCycles
	if allCycles > 0 {
		expected := s.workloadC * allCycles * float64(s.pmCount)
		if float64(res.Issued+res.Local) < 0.5*expected {
			res.Saturated = true
		}
	}
	return res, nil
}
