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
	// links is the model's link list, read once at build, and marks
	// each group's reading at the warmup discard, where the Result's
	// utilization counts from; perLevel reports each group on its own
	// (rings) instead of merged (meshes).
	links    []sim.LinkGroup
	marks    []sim.LinkMark
	perLevel bool

	metrics  *metrics.Registry
	sampler  *metrics.Sampler
	userHook func(now int64, moved uint64)

	pmCount   int
	workloadC float64
	desc      string
	topology  string
}

// SystemConfig configures a system over either interconnect.
type SystemConfig struct {
	// Network is the family name network.New resolves: "ring" or
	// "mesh".
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
	// Metrics, when non-nil, receives the link utilization series
	// (network.Model.Links) and the model's own instruments (queue
	// occupancy, stall counters; network.Model.DescribeMetrics).
	// Instrumentation is observation-only and never changes simulation
	// results.
	Metrics *metrics.Registry
	// MetricsInterval, when > 0 together with Metrics, attaches a
	// time-series sampler snapshotting every MetricsInterval PM clock
	// cycles (see System.Sampler). The sampler is reset when the
	// warmup batch is discarded, so its rows cover the measured
	// interval.
	MetricsInterval int64
	// Workers, when > 1, computes each tick across a goroutine pool if
	// the network model partitions itself (see network.Model.Partition
	// and internal/core/parallel.go; the mesh does, the rings decline),
	// then commits it serially. Execution-only: any worker count
	// produces results bit-identical to Workers <= 1, so Workers never
	// enters result cache keys. Falls back to the serial engine when the
	// model declines to partition.
	Workers int
	// PhaseStats, when true together with Workers > 1, times each
	// shard's compute, the serial commit and each worker's barrier waits
	// (see System.PhaseStats). Observation-only like Metrics: the
	// schedule and results are bit-identical with it on or off, so it
	// never enters result cache keys. Ignored on the serial path.
	PhaseStats bool
}

// NewSystem builds a multiprocessor around the interconnect
// cfg.Network names.
func NewSystem(cfg SystemConfig) (*System, error) {
	plan, err := network.New(cfg.Network, cfg.Net)
	if err != nil {
		return nil, err
	}
	return NewSystemOn(plan, cfg)
}

// NewSystemOn is NewSystem for a caller that already resolved the
// geometry: plan is what network.New returns for cfg.Network and
// cfg.Net, or, in tests, a stub model's hand-made plan.
func NewSystemOn(plan *network.Plan, cfg SystemConfig) (*System, error) {
	if err := cfg.Workload.Validate(); err != nil {
		return nil, err
	}
	pattern, err := plan.Locality(cfg.Workload.R)
	if err != nil {
		return nil, err
	}
	s := &System{
		engine:    &sim.Engine{},
		col:       node.NewCollector(),
		pmCount:   plan.PMs,
		workloadC: cfg.Workload.C,
		desc:      plan.Description,
		topology:  plan.Topology,
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
	}
	s.engine.Register(pmSet(s.pms), 1)
	model, err := plan.Build(ports, s.engine)
	if err != nil {
		return nil, err
	}
	model.SetTracer(cfg.Tracer)
	s.links, s.perLevel = model.Links(), plan.PerLevel
	s.metrics = cfg.Metrics
	if cfg.Metrics != nil {
		for _, g := range s.links {
			cfg.Metrics.Ratio(plan.Name+"_link_util", metrics.Labels{Link: g.Label}, g)
		}
		model.DescribeMetrics(cfg.Metrics)
		if cfg.MetricsInterval > 0 {
			s.sampler = metrics.NewSampler(cfg.Metrics, cfg.MetricsInterval)
		}
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

// pmSet is every PM as one engine component, committing in id order.
type pmSet []*node.PM

// Compute implements sim.Component: PMs stage nothing.
func (pmSet) Compute(int64) {}

// Commit implements sim.Component.
func (ps pmSet) Commit(now int64) {
	for _, pm := range ps {
		pm.Commit(now)
	}
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

// PMs returns the number of processing modules.
func (s *System) PMs() int { return s.pmCount }

// Describe returns a human-readable system summary.
func (s *System) Describe() string { return s.desc }

// Topology returns the canonical resolved topology (e.g. "3:3:8",
// "8x8").
func (s *System) Topology() string { return s.topology }

// StepCycles advances the system by n PM clock cycles, one engine tick
// each.
func (s *System) StepCycles(n int64) error { return s.engine.Run(n) }

// Close releases the engine's worker goroutines (parallel mode; no-op
// otherwise). Run/RunCtx already release them on return, so Close only
// matters for callers driving the system through StepCycles.
func (s *System) Close() { s.engine.CloseWorkers() }

// DefaultWatchdogCycles is the stall-detection horizon a RunConfig with
// WatchdogCycles 0 runs under. The facade's cache key resolves the
// same zero through this constant, so the two cannot disagree.
const DefaultWatchdogCycles = 20000

// RunConfig is the batch-means measurement schedule; the public
// ringmesh.RunOptions is this type, and its JSON names are the serving
// API's wire format.
type RunConfig struct {
	// WarmupCycles is the discarded first batch, in PM cycles.
	WarmupCycles int64 `json:"warmup_cycles"`
	// BatchCycles is the length of each retained batch.
	BatchCycles int64 `json:"batch_cycles"`
	// Batches is the number of retained batches: at least 2, since a
	// confidence interval needs two batch means.
	Batches int `json:"batches"`
	// WatchdogCycles overrides the stall-detection horizon in PM
	// cycles (0 = DefaultWatchdogCycles): the run aborts after this
	// many cycles without a single flit movement while packets are in
	// flight.
	WatchdogCycles int64 `json:"watchdog_cycles,omitempty"`
	// Timeout bounds the run's wall-clock time; exceeding it aborts
	// with an error wrapping ErrTimeout (0 = no limit). The deadline
	// is checked between 1024-cycle chunks, so simulation results are
	// unaffected for runs that finish in time.
	Timeout time.Duration `json:"timeout_ns,omitempty"`
	// FailOnStall turns a watchdog trip into a returned error (the
	// model's *sim.StallError when it can diagnose itself) instead of
	// the default Result.Stalled marker that lets sweeps plot
	// saturation points.
	FailOnStall bool `json:"fail_on_stall,omitempty"`
}

// DefaultRunConfig returns the schedule used for the paper
// reproduction: 4000-cycle warmup plus eight 4000-cycle batches, tight
// confidence intervals in a few tens of milliseconds per point.
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
	case rc.Batches < 2:
		return fmt.Errorf("batches %d < 2: a confidence interval needs at least 2 batches", rc.Batches)
	case rc.WatchdogCycles < 0:
		return fmt.Errorf("watchdog_cycles %d < 0", rc.WatchdogCycles)
	case rc.Timeout < 0:
		return fmt.Errorf("timeout_ns %d < 0", rc.Timeout)
	default:
		return nil
	}
}

// Result reports one run's measurements, exact or analytic. The public
// ringmesh.Result is this type: its JSON form is what ringmeshd serves
// and caches, so the field order and names are wire format.
type Result struct {
	// LatencyCycles is the average round-trip access latency in PM
	// clock cycles — the paper's primary metric.
	LatencyCycles float64 `json:"latency_cycles"`
	// LatencyCI95 is the 95% confidence half-width on LatencyCycles.
	LatencyCI95 float64 `json:"latency_ci95"`
	// Observations is the number of completed transactions measured
	// (after warmup).
	Observations int64 `json:"observations"`
	// RingUtilization is the per-level link utilization in [0,1]
	// (index 0 = global ring, last = local rings); nil for meshes.
	RingUtilization []float64 `json:"ring_utilization,omitempty"`
	// MeshUtilization is the aggregate inter-router link utilization
	// in [0,1]; zero for rings.
	MeshUtilization float64 `json:"mesh_utilization,omitempty"`
	// Throughput is completed transactions per PM cycle over the whole
	// system.
	Throughput float64 `json:"throughput"`
	// Issued, Completed and Local count transactions over the whole
	// run (including warmup).
	Issued    int64 `json:"issued"`
	Completed int64 `json:"completed"`
	Local     int64 `json:"local"`
	// LatencyP50, LatencyP95, LatencyP99 and LatencyMax describe the
	// latency distribution when the system was built with Histogram
	// set (zero otherwise).
	LatencyP50 float64 `json:"latency_p50,omitempty"`
	LatencyP95 float64 `json:"latency_p95,omitempty"`
	LatencyP99 float64 `json:"latency_p99,omitempty"`
	LatencyMax float64 `json:"latency_max,omitempty"`
	// BatchesCorrelated flags strong lag-1 autocorrelation among batch
	// means (|r| > 0.5): the batches are too short relative to the
	// system's time constants and LatencyCI95 understates uncertainty;
	// lengthen BatchCycles before trusting it.
	BatchesCorrelated bool `json:"batches_correlated,omitempty"`
	// Saturated is set when processors spent most of their time
	// blocked on the T-window: the realized miss-generation rate fell
	// below half the configured rate C, so the network is past its
	// saturation point and the latency is a lower bound on open-loop
	// delay.
	Saturated bool `json:"saturated,omitempty"`
	// Stalled is set when the no-progress watchdog tripped; the other
	// fields then describe the run up to the stall.
	Stalled bool `json:"stalled,omitempty"`
	// Stall carries the model's forensic snapshot when Stalled is set
	// and the model can diagnose itself; nil otherwise.
	Stall *sim.StallDiagnosis `json:"stall,omitempty"`
	// Fidelity labels non-exact answers with the backend that produced
	// them ("analytic"); empty for exact simulation results, so
	// pre-fidelity result documents are byte-identical.
	Fidelity string `json:"fidelity,omitempty"`
	// ErrorBound carries the recorded validation envelope when
	// Fidelity is "analytic" and the configuration's family has one;
	// nil on exact results.
	ErrorBound *ErrorBound `json:"error_bound,omitempty"`
}

// ErrorBound is the recorded analytic-vs-simulate validation envelope
// attached to analytic answers: the worst relative latency error
// observed (plus margin) when both backends ran the golden configs at
// low load. See internal/fidelity and results/analytic-bounds.csv.
type ErrorBound struct {
	// MaxRelErr is the admitted relative latency error at low load
	// (0.03 = within 3% of the simulator).
	MaxRelErr float64 `json:"max_rel_err"`
	// Basis states what the bound was recorded against.
	Basis string `json:"basis"`
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
		if err := s.engine.Run(step); err != nil {
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
	s.engine.WatchdogTicks = wd
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
	s.marks = s.marks[:0]
	for _, g := range s.links {
		s.marks = append(s.marks, g.Mark())
	}
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
		LatencyCycles: s.col.Latency.Mean(),
		LatencyCI95:   s.col.Latency.HalfWidth(),
		Observations:  s.col.Latency.Observations(),
		Issued:        s.col.Issued,
		Completed:     s.col.Completed,
		Local:         s.col.Local,
		Stalled:       stalled,
	}
	if stalled {
		var se *sim.StallError
		if errors.As(stallErr, &se) {
			res.Stall = se.Report.Diagnosis()
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
	var busy, capacity int64
	for i, g := range s.links {
		b, c := g.Since(s.marks[i])
		if s.perLevel {
			res.RingUtilization = append(res.RingUtilization, sim.Utilization(b, c))
		}
		busy, capacity = busy+b, capacity+c
	}
	if !s.perLevel {
		res.MeshUtilization = sim.Utilization(busy, capacity)
	}
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
