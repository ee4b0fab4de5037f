// Package ringmesh is a flit-level, cycle-accurate simulator of
// hierarchical ring- and mesh-connected shared-memory multiprocessor
// networks, reproducing Ravindran & Stumm, "A Performance Comparison
// of Hierarchical Ring- and Mesh-connected Multiprocessor Networks"
// (HPCA 1997).
//
// The package is the stable public facade over the internal simulator
// packages. Interconnects are selected by name through a topology
// registry, so one configuration type drives every model:
//
//	res, err := ringmesh.Run(ringmesh.Config{
//	    Network:   "ring",
//	    Topology:  "3:3:8",      // 1 global, 3 intermediate, 3 local rings of 8 PMs
//	    LineBytes: 32,
//	    Workload:  ringmesh.PaperWorkload(),
//	}, ringmesh.DefaultRunOptions())
//
// or, for a mesh:
//
//	res, err := ringmesh.Run(ringmesh.Config{
//	    Network:     "mesh",
//	    Nodes:       64,         // 8x8
//	    LineBytes:   32,
//	    BufferFlits: 4,
//	    Workload:    ringmesh.PaperWorkload(),
//	}, ringmesh.DefaultRunOptions())
//
// Topologies lists the registered network names.
//
// Results report the paper's metrics: average round-trip access
// latency in processor clock cycles (with a 95% confidence interval
// from the batch-means method) and network utilization.
package ringmesh

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"ringmesh/internal/core"
	"ringmesh/internal/fault"
	"ringmesh/internal/fidelity"
	"ringmesh/internal/metrics"
	"ringmesh/internal/network"
	"ringmesh/internal/node"
	"ringmesh/internal/obs"
	"ringmesh/internal/sim"
	"ringmesh/internal/topo"
	"ringmesh/internal/trace"
	"ringmesh/internal/workload"
)

// Workload is the paper's M-MRP synthetic workload: every processor
// issues cache misses over an access region of its R·(P−1) closest
// PMs, at rate C misses per cycle, blocking after T outstanding
// transactions.
//
// The JSON field names (here and on Config, RunOptions, Result and
// SweepPoint) are the ringmeshd serving API's wire format; see the
// README's Serving section.
type Workload struct {
	// R is the access-region fraction in (0, 1]; 1.0 means no
	// locality (uniform over the machine).
	R float64 `json:"r"`
	// C is the per-cycle cache miss probability (paper: 0.04).
	C float64 `json:"c"`
	// T is the number of outstanding transactions a processor may
	// have before blocking (paper: 1, 2 or 4).
	T int `json:"t"`
	// ReadProb is the probability a miss is a read (paper: 0.7).
	ReadProb float64 `json:"read_prob"`
	// Deterministic spaces misses exactly 1/C cycles apart instead of
	// geometrically (an ablation option; the paper's generator is
	// stochastic).
	Deterministic bool `json:"deterministic,omitempty"`
	// OpenLoop keeps generating misses while the processor is blocked
	// on its T-window, queueing them at the processor; latency then
	// counts from generation time. See the workload package for why
	// the closed-loop default matches the paper's reported behaviour.
	OpenLoop bool `json:"open_loop,omitempty"`
}

// PaperWorkload returns the paper's baseline workload: R=1.0, C=0.04,
// T=4, 70% reads.
func PaperWorkload() Workload {
	return Workload{R: 1.0, C: 0.04, T: 4, ReadProb: 0.7}
}

func (w Workload) internal() workload.MMRP {
	return workload.MMRP{R: w.R, C: w.C, T: w.T, ReadProb: w.ReadProb,
		Deterministic: w.Deterministic, OpenLoop: w.OpenLoop}
}

// Config describes a system over any registered interconnect. Network
// selects the model by registry name; the topology-specific fields
// (Topology, BufferFlits, DoubleSpeedGlobal, ...) are interpreted by
// the model that understands them and ignored by the others, the same
// contract as a shared command-line flag set.
type Config struct {
	// Network is the registered interconnect name; see Topologies().
	// Built-ins: "ring" (hierarchical rings) and "mesh" (square 2D
	// bi-directional mesh).
	Network string `json:"network"`
	// Topology names the geometry in the model's own notation — the
	// paper's colon notation for rings ("2:3:4", "12"), "KxK" for
	// meshes. Leave empty and set Nodes to derive it from the
	// processor count.
	Topology string `json:"topology,omitempty"`
	// Nodes is the processor count, used when Topology is empty (and
	// cross-checked against it otherwise). Ring hierarchies derive
	// via the paper's Table 2 methodology; meshes must be square.
	Nodes int `json:"nodes,omitempty"`
	// LineBytes is the cache line size: 16, 32, 64 or 128.
	LineBytes int `json:"line_bytes"`
	// BufferFlits is the router input buffer depth in flits (mesh
	// only); the paper evaluates 1, 4 and cache-line-sized (0
	// selects cl).
	BufferFlits int `json:"buffer_flits,omitempty"`
	// DoubleSpeedGlobal clocks the global ring at twice the PM clock
	// (ring only; paper Section 6).
	DoubleSpeedGlobal bool `json:"double_speed_global,omitempty"`
	// SlottedSwitching selects the Hector/NUMAchine slotted-ring
	// technique instead of the paper's wormhole switching (ring only;
	// see internal/ring/slotted.go).
	SlottedSwitching bool `json:"slotted_switching,omitempty"`
	// Workload is the M-MRP attribute set.
	Workload Workload `json:"workload"`
	// MemLatencyCycles is the memory service time (0 = default 10).
	MemLatencyCycles int `json:"mem_latency_cycles,omitempty"`
	// Seed makes the run reproducible (same seed, same result).
	Seed uint64 `json:"seed,omitempty"`
	// Histogram also collects the latency distribution so the result
	// can report percentiles (small extra memory cost).
	Histogram bool `json:"histogram,omitempty"`
	// Trace records per-packet lifecycle events (issue, hops, exits,
	// delivery), retrievable via System.TraceEvents. Tracing large
	// runs is memory-hungry; see TraceOnlyPacket to narrow it.
	Trace bool `json:"trace,omitempty"`
	// TraceOnlyPacket restricts tracing to one packet id (0 = all).
	TraceOnlyPacket uint64 `json:"trace_only_packet,omitempty"`
	// Metrics enables the instrument registry: per-link utilization,
	// queue occupancy and stall counters, sampled every
	// MetricsIntervalCycles and exportable via System.WriteMetricsCSV,
	// WriteMetricsJSONL and WriteMetricsSnapshot. Disabled (the
	// default), instrumentation costs nothing: the models hold nil
	// counters whose methods no-op.
	Metrics bool `json:"metrics,omitempty"`
	// MetricsIntervalCycles is the sampling period in PM clock cycles
	// (0 = default 100). Only meaningful with Metrics set.
	MetricsIntervalCycles int64 `json:"metrics_interval_cycles,omitempty"`
	// FaultPlan schedules deterministic hardware faults, in the fault
	// DSL: semicolon-separated events of the form
	// "kind@start+duration:node=N[,port=P][,factor=F]" with kinds
	// link-stutter, node-slowdown and port-degrade, or
	// "rand:events=E,seed=S,horizon=H" for a seeded random plan, or
	// "none" to enable the subsystem with an empty schedule. Times are
	// PM cycles; node indices are model-specific (ring: station build
	// order, mesh: router ids). Empty string disables fault injection
	// entirely; an empty plan ("none") is bit-identical to disabled.
	FaultPlan string `json:"fault_plan,omitempty"`
	// UnsafeNoVC disables the ring model's virtual channels and bubble
	// flow control (wormhole only), restoring the paper-era hierarchy
	// deadlock. For forensics demonstrations and ablations — never for
	// measurement runs.
	UnsafeNoVC bool `json:"unsafe_no_vc,omitempty"`
	// Workers, when > 1, runs a mesh's tick loop across that many
	// worker goroutines, one shard per router row. Meshes only; rings
	// run serial at any value (their tick is shorter than the barriers
	// a sharded one crosses), as does every system with Trace set.
	// Execution-only: results are bit-identical at any worker count, so
	// Workers does not enter result cache keys (see CacheKey).
	Workers int `json:"workers,omitempty"`
	// PhaseStats, when true together with Workers > 1, times every
	// shard's compute/commit phases and every worker's barrier waits
	// (see System.PhaseStats) — the shard-imbalance evidence for the
	// parallel engine. Observation-only like Metrics: results are
	// bit-identical with it on or off, and it never enters result
	// cache keys (see CacheKey). Ignored on the serial path.
	PhaseStats bool `json:"phase_stats,omitempty"`
	// Fidelity selects the answer tier: "" or "simulate" runs the
	// exact flit-level engine (the default, byte-identical cache keys
	// with pre-fidelity versions), "analytic" answers from the
	// closed-form models in microseconds with a recorded error bound
	// (see Estimate and Result.ErrorBound).
	// Fidelity joins the cache key, so analytic and exact results can
	// never collide. The serving daemon additionally accepts "auto"
	// (cache hit → analytic now → exact upgrade job), resolved at
	// admission; "auto" is invalid here and in CacheKey.
	Fidelity string `json:"fidelity,omitempty"`
}

// RunOptions controls the batch-means measurement schedule.
type RunOptions struct {
	// WarmupCycles is the discarded first batch.
	WarmupCycles int64 `json:"warmup_cycles"`
	// BatchCycles is the length of each retained batch.
	BatchCycles int64 `json:"batch_cycles"`
	// Batches is the number of retained batches.
	Batches int `json:"batches"`
	// WatchdogCycles overrides the stall-detection horizon in PM
	// cycles (0 = default 20000): the run aborts after this many
	// cycles without a single flit movement while packets are in
	// flight.
	WatchdogCycles int64 `json:"watchdog_cycles,omitempty"`
	// Timeout bounds the run's wall-clock time; exceeding it returns
	// an error wrapping ErrTimeout (0 = no limit).
	Timeout time.Duration `json:"timeout_ns,omitempty"`
	// FailOnStall turns a watchdog trip into a returned error — which
	// unwraps to ErrStalled and carries the diagnosis (see
	// DiagnoseStall) — instead of the default Result.Stalled marker
	// that lets sweeps plot saturation points.
	FailOnStall bool `json:"fail_on_stall,omitempty"`
}

// DefaultRunOptions returns the schedule used for the paper
// reproduction: 4000-cycle warmup plus eight 4000-cycle batches.
func DefaultRunOptions() RunOptions {
	return RunOptions{WarmupCycles: 4000, BatchCycles: 4000, Batches: 8}
}

// QuickRunOptions returns a shortened schedule for smoke tests.
func QuickRunOptions() RunOptions {
	return RunOptions{WarmupCycles: 1000, BatchCycles: 1000, Batches: 4}
}

// Validate range-checks the schedule (core.RunConfig.Validate, the one
// rule every entry point applies): a negative watchdog horizon or
// timeout is rejected rather than read as "off".
func (o RunOptions) Validate() error { return o.internal().Validate() }

func (o RunOptions) internal() core.RunConfig {
	return core.RunConfig{
		WarmupCycles:   o.WarmupCycles,
		BatchCycles:    o.BatchCycles,
		Batches:        o.Batches,
		WatchdogCycles: o.WatchdogCycles,
		Timeout:        o.Timeout,
		FailOnStall:    o.FailOnStall,
	}
}

// Result reports one simulation run's measurements.
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
	// Throughput is completed transactions per cycle over the whole
	// system.
	Throughput float64 `json:"throughput"`
	// Issued, Completed and Local count transactions over the run.
	Issued    int64 `json:"issued"`
	Completed int64 `json:"completed"`
	Local     int64 `json:"local"`
	// LatencyP50, LatencyP95, LatencyP99 and LatencyMax describe the
	// latency distribution when Histogram was requested (zero
	// otherwise).
	LatencyP50 float64 `json:"latency_p50,omitempty"`
	LatencyP95 float64 `json:"latency_p95,omitempty"`
	LatencyP99 float64 `json:"latency_p99,omitempty"`
	LatencyMax float64 `json:"latency_max,omitempty"`
	// BatchesCorrelated flags strong autocorrelation among batch
	// means: lengthen BatchCycles before trusting LatencyCI95.
	BatchesCorrelated bool `json:"batches_correlated,omitempty"`
	// Saturated marks runs past the network's saturation point
	// (processors spent most of their time blocked); the latency is
	// then a lower bound on open-loop delay.
	Saturated bool `json:"saturated,omitempty"`
	// Stalled marks runs aborted by the no-progress watchdog.
	Stalled bool `json:"stalled,omitempty"`
	// Stall carries the model's forensic snapshot when Stalled is set
	// and the model can diagnose itself; nil otherwise.
	Stall *StallDiagnosis `json:"stall,omitempty"`
	// Fidelity labels non-exact answers with the backend that produced
	// them ("analytic"); empty for exact simulation results, so
	// pre-fidelity result documents are byte-identical.
	Fidelity string `json:"fidelity,omitempty"`
	// ErrorBound carries the recorded validation envelope when
	// Fidelity is "analytic" and the configuration's family has one;
	// nil on exact results.
	ErrorBound *ErrorBound `json:"error_bound,omitempty"`
}

// SweepPoint is one measurement of a size sweep, as the serving
// daemon's sweep job documents report it (POST /v1/sweeps).
type SweepPoint struct {
	// Nodes is the processor count of this point.
	Nodes int `json:"nodes"`
	// Topology is the resolved geometry in the model's notation
	// ("2:3:4" for rings, "8x8" for meshes).
	Topology string `json:"topology"`
	// Result holds the measurements.
	Result Result `json:"result"`
	// Attempts is how many dispatches this point took (1 = first try;
	// a coordinator re-dispatches a point whose worker failed, on the
	// same seed, so a retried point is still reproducible).
	Attempts int `json:"attempts"`
}

// ErrorBound is the recorded analytic-vs-simulate validation envelope
// attached to analytic-fidelity results: the worst relative latency
// error observed (plus margin) when both backends ran the golden
// configs at low load. See internal/fidelity and
// results/analytic-bounds.csv.
type ErrorBound struct {
	// MaxRelErr is the admitted relative latency error at low load
	// (0.03 = within 3% of the simulator).
	MaxRelErr float64 `json:"max_rel_err"`
	// Basis states what the bound was recorded against.
	Basis string `json:"basis"`
}

// StallDiagnosis is the structured snapshot a model builds when the
// no-progress watchdog trips: what was buffered where, which senders
// were waiting on which, and whether those waits close into cycles (a
// true deadlock) or not (livelock or starvation).
type StallDiagnosis struct {
	// Tick is the engine tick the watchdog tripped at.
	Tick int64 `json:"tick"`
	// BufferedFlits is the network's total buffered load at the stall.
	BufferedFlits int `json:"buffered_flits"`
	// Cycles lists the wait-for cycles found, each as the node names
	// around the loop; a non-empty list names a deadlock's culprits.
	Cycles [][]string `json:"cycles,omitempty"`
	// ActiveFaults describes the injected faults active at the stall.
	ActiveFaults []string `json:"active_faults,omitempty"`
	// Summary is a compact human-readable rendering of the full
	// report (buffers, wait-for edges, oldest stuck packets).
	Summary string `json:"summary"`
}

// ErrStalled matches (via errors.Is) any run error caused by the
// no-progress watchdog: a routing deadlock or flow-control livelock.
var ErrStalled = sim.ErrStalled

// ErrTimeout matches (via errors.Is) any run error caused by
// exceeding RunOptions.Timeout.
var ErrTimeout = core.ErrTimeout

// DiagnoseStall extracts the stall diagnosis from an error returned
// by a run with FailOnStall set (nil when err carries none).
func DiagnoseStall(err error) *StallDiagnosis {
	var se *sim.StallError
	if !errors.As(err, &se) {
		return nil
	}
	return diagnosisFrom(se.Report)
}

func diagnosisFrom(rep *sim.StallReport) *StallDiagnosis {
	if rep == nil {
		return nil
	}
	return &StallDiagnosis{
		Tick:          rep.Tick,
		BufferedFlits: rep.BufferedFlits,
		Cycles:        rep.Cycles,
		ActiveFaults:  rep.ActiveFaults,
		Summary:       rep.Summary(),
	}
}

func fromCore(r core.Result) Result {
	return Result{
		LatencyCycles:     r.Latency,
		LatencyCI95:       r.LatencyCI,
		Observations:      r.Observations,
		RingUtilization:   r.RingUtil,
		MeshUtilization:   r.MeshUtil,
		Throughput:        r.Throughput,
		Issued:            r.Issued,
		Completed:         r.Completed,
		Local:             r.Local,
		LatencyP50:        r.LatencyP50,
		LatencyP95:        r.LatencyP95,
		LatencyP99:        r.LatencyP99,
		LatencyMax:        r.LatencyMax,
		BatchesCorrelated: r.BatchesCorrelated,
		Saturated:         r.Saturated,
		Stalled:           r.Stalled,
		Stall:             diagnosisFrom(r.Stall),
	}
}

// TraceEvent is one recorded packet lifecycle step (see Config.Trace).
type TraceEvent struct {
	// Tick is the engine tick of the event.
	Tick int64 `json:"tick"`
	// Kind is "issue", "inject", "hop", "exit" or "deliver".
	Kind string
	// Packet is the packet id; Type its transaction kind.
	Packet uint64
	Type   string
	// Src, Dst are the packet's endpoint PMs.
	Src, Dst int
	// Where locates the event (a NIC, IRI or router port).
	Where string
}

// System is a constructed simulation that can be advanced manually;
// most callers use Run instead.
type System struct {
	inner *core.System
	rec   *trace.Recorder
}

// TraceEvents returns the packet lifecycle events recorded so far
// (nil unless the system was built with Trace set).
func (s *System) TraceEvents() []TraceEvent {
	evts := s.rec.Events()
	if evts == nil {
		return nil
	}
	out := make([]TraceEvent, len(evts))
	for i, e := range evts {
		out[i] = TraceEvent{
			Tick: e.Tick, Kind: e.Kind.String(), Packet: e.Packet,
			Type: e.Type.String(), Src: e.Src, Dst: e.Dst, Where: e.Where,
		}
	}
	return out
}

// PacketTimeline returns the recorded events of one packet.
func (s *System) PacketTimeline(id uint64) []TraceEvent {
	var out []TraceEvent
	for _, e := range s.TraceEvents() {
		if e.Packet == id {
			out = append(out, e)
		}
	}
	return out
}

// resolved is what every entry point reads of a Config: the one place
// a configuration becomes a geometry, a validated workload and a
// parsed fault plan. NewSystem, Estimate, CacheKey and
// CanonicalTopology are each a few lines over it.
type resolved struct {
	// fidelity is the normalized answer tier (fidelity.Simulate or
	// fidelity.Analytic).
	fidelity string
	// plan is the geometry as the topology registry resolved it.
	plan *network.Plan
	// sys is the configuration as both tiers read it: network,
	// validated workload, memory latency with its default filled in,
	// seed, parsed fault plan. The observation attachments (tracer,
	// metrics) are NewSystem's to add.
	sys core.SystemConfig
}

func resolve(cfg Config) (resolved, error) {
	fid, err := fidelity.Normalize(cfg.Fidelity)
	if err != nil {
		return resolved{}, err
	}
	net := network.Config{
		Topology:          cfg.Topology,
		Nodes:             cfg.Nodes,
		LineBytes:         cfg.LineBytes,
		BufferFlits:       cfg.BufferFlits,
		DoubleSpeedGlobal: cfg.DoubleSpeedGlobal,
		SlottedSwitching:  cfg.SlottedSwitching,
		UnsafeNoVC:        cfg.UnsafeNoVC,
	}
	plan, err := network.New(cfg.Network, net)
	if err != nil {
		return resolved{}, err
	}
	wl := cfg.Workload.internal()
	if err := wl.Validate(); err != nil {
		return resolved{}, err
	}
	var faults *fault.Plan
	if cfg.FaultPlan != "" {
		if faults, err = fault.Parse(cfg.FaultPlan); err != nil {
			return resolved{}, err
		}
	}
	memLatency := cfg.MemLatencyCycles
	if memLatency == 0 {
		memLatency = node.DefaultMemLatency
	}
	return resolved{fidelity: fid, plan: plan, sys: core.SystemConfig{
		Network:    cfg.Network,
		Net:        net,
		Workload:   wl,
		MemLatency: memLatency,
		Seed:       cfg.Seed,
		Histogram:  cfg.Histogram,
		FaultPlan:  faults,
		Workers:    cfg.Workers,
		PhaseStats: cfg.PhaseStats,
	}}, nil
}

// NewSystem builds a multiprocessor over the interconnect named by
// cfg.Network, resolved through the topology registry. Only exact
// (simulate-fidelity) systems can be built and stepped; analytic
// configurations are answered by Estimate or Run instead.
func NewSystem(cfg Config) (*System, error) {
	r, err := resolve(cfg)
	if err != nil {
		return nil, err
	}
	if r.fidelity != fidelity.Simulate {
		return nil, fmt.Errorf("ringmesh: fidelity %q cannot build a steppable system; use Run or Estimate", cfg.Fidelity)
	}
	return r.newSystem(cfg)
}

// newSystem assembles the engine on the resolved geometry, attaching
// the observers the configuration asks for.
func (r resolved) newSystem(cfg Config) (*System, error) {
	sc := r.sys
	if cfg.Trace {
		sc.Tracer = &trace.Recorder{OnlyPacket: cfg.TraceOnlyPacket}
	}
	if cfg.Metrics {
		sc.Metrics = &metrics.Registry{}
		sc.MetricsInterval = cfg.MetricsIntervalCycles
		if sc.MetricsInterval <= 0 {
			sc.MetricsInterval = 100
		}
	}
	sys, err := core.NewSystemOn(r.plan, sc)
	if err != nil {
		return nil, err
	}
	return &System{inner: sys, rec: sc.Tracer}, nil
}

// Run executes the batch-means schedule and returns the measurements.
func (s *System) Run(opt RunOptions) (Result, error) {
	return s.RunContext(context.Background(), opt)
}

// RunContext is Run with cancellation: ctx aborts the run between
// cycle chunks (returning ctx.Err() wrapped), opt.Timeout bounds its
// wall-clock time, and an internal model panic is recovered into an
// error instead of crashing the caller.
func (s *System) RunContext(ctx context.Context, opt RunOptions) (Result, error) {
	r, err := s.inner.RunCtx(ctx, opt.internal())
	if err != nil {
		return Result{}, err
	}
	return fromCore(r), nil
}

// StepCycles advances the simulation by n PM clock cycles without
// collecting batch statistics (useful for warm-starting or tracing).
func (s *System) StepCycles(n int64) error { return s.inner.StepCycles(n) }

// Parallel reports whether ticks execute on the parallel worker engine
// (Config.Workers > 1 on an untraced mesh; meshes only, rings run
// serial); false means the exact serial path runs.
func (s *System) Parallel() bool { return s.inner.Engine().Parallel() }

// PhaseStats returns the parallel engine's phase-timing accumulator:
// per-shard compute/commit durations and per-worker barrier-wait
// distributions. Nil unless the system was built with Workers > 1 and
// Config.PhaseStats and the model partitioned itself. Read it only
// after a run has completed (the accumulator is unsynchronized by
// design).
func (s *System) PhaseStats() *obs.PhaseStats { return s.inner.PhaseStats() }

// Close releases the engine's worker goroutines (parallel mode; no-op
// otherwise). Run and RunContext already release them on return, so
// Close only matters for callers driving the system via StepCycles.
func (s *System) Close() { s.inner.Close() }

// OnCycle registers f to be called once at the end of every engine
// tick with the tick just completed and the number of flit movements
// it produced — the per-cycle observability hook for instantaneous
// load traces. Pass nil to detach. The hook composes with the metrics
// sampler, so both can observe every tick. Note that ticks run faster
// than PM cycles on double-speed-global configurations.
func (s *System) OnCycle(f func(tick int64, flitsMoved uint64)) {
	s.inner.OnCycle(f)
}

// MetricSample is one sampled metrics row (see Config.Metrics).
type MetricSample struct {
	// Cycle is the PM clock cycle of the sample (ticks divided by the
	// ticks-per-cycle factor, so values are comparable across
	// double-speed-global configurations).
	Cycle int64
	// Values holds one value per MetricNames entry, index-aligned:
	// windowed utilization in [0,1] for ratio series, windowed deltas
	// for counters, instantaneous readings for gauges.
	Values []float64
}

// MetricNames returns the sampled series keys, e.g.
// "ring_link_util{link=L0}", in registration order (nil unless the
// system was built with Metrics).
func (s *System) MetricNames() []string {
	return s.inner.Sampler().Keys()
}

// MetricSamples returns the time series collected so far, one row per
// sampling interval (nil unless the system was built with Metrics).
// Rows recorded before a Run's warmup are discarded together with the
// warmup batch.
func (s *System) MetricSamples() []MetricSample {
	raw := s.inner.Sampler().Samples()
	if raw == nil {
		return nil
	}
	tpc := s.inner.TicksPerCycle()
	out := make([]MetricSample, len(raw))
	for i, r := range raw {
		out[i] = MetricSample{Cycle: (r.Tick + 1) / tpc, Values: r.Values}
	}
	return out
}

// WriteMetricsCSV writes the sampled time series as CSV (tick column
// plus one column per series key). It errors unless the system was
// built with Metrics.
func (s *System) WriteMetricsCSV(w io.Writer) error {
	if samp := s.inner.Sampler(); samp != nil {
		return samp.WriteCSV(w)
	}
	return fmt.Errorf("ringmesh: metrics disabled (set Config.Metrics)")
}

// WriteMetricsJSONL writes the sampled time series as JSON Lines, one
// object per sampling interval. It errors unless the system was built
// with Metrics.
func (s *System) WriteMetricsJSONL(w io.Writer) error {
	if samp := s.inner.Sampler(); samp != nil {
		return samp.WriteJSONL(w)
	}
	return fmt.Errorf("ringmesh: metrics disabled (set Config.Metrics)")
}

// WriteMetricsSnapshot writes a one-shot Prometheus-style text
// snapshot of every instrument's cumulative value. It errors unless
// the system was built with Metrics.
func (s *System) WriteMetricsSnapshot(w io.Writer) error {
	if reg := s.inner.Metrics(); reg != nil {
		return reg.WriteText(w)
	}
	return fmt.Errorf("ringmesh: metrics disabled (set Config.Metrics)")
}

// WriteTrace writes the recorded packet lifecycle events, one line
// each. It errors unless the system was built with Trace.
func (s *System) WriteTrace(w io.Writer) error {
	if s.rec != nil {
		return s.rec.Write(w)
	}
	return fmt.Errorf("ringmesh: tracing disabled (set Config.Trace)")
}

// PMs returns the number of processing modules.
func (s *System) PMs() int { return s.inner.PMs() }

// TicksPerCycle returns engine ticks per PM clock cycle (2 on
// double-speed-global configurations, else 1) — the factor for
// converting OnCycle tick counts into PM cycles, e.g. when feeding a
// progress gauge.
func (s *System) TicksPerCycle() int64 { return s.inner.TicksPerCycle() }

// Describe returns a one-line summary of the system.
func (s *System) Describe() string { return s.inner.Describe() }

// Topology returns the canonical resolved geometry — colon notation
// for rings ("3:3:8"), "KxK" for meshes — even when the system was
// configured by node count alone.
func (s *System) Topology() string { return s.inner.Topology() }

// Run builds and measures a system over any registered interconnect
// in one call. It is the one place that chooses the answer tier from
// Config.Fidelity: exact simulation by default, the closed-form models
// (see Estimate) when the config asks for them.
func Run(cfg Config, opt RunOptions) (Result, error) {
	r, err := resolve(cfg)
	if err != nil {
		return Result{}, err
	}
	if r.fidelity == fidelity.Analytic {
		return r.estimate()
	}
	sys, err := r.newSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	return sys.Run(opt)
}

// Estimate answers an analytic-fidelity configuration from the
// closed-form models, in well under a millisecond for a ring and a few
// milliseconds for the largest meshes, without building the engine (the
// schedule plays no part). The result is labeled
// (Result.Fidelity) and carries the recorded validation envelope
// (Result.ErrorBound) when its network family has one. Estimation
// fails for configurations outside the validated envelope — slotted
// switching, double-speed global rings, fault plans, open-loop or
// deterministic workloads — rather than returning an unlabeled guess;
// callers fall back to exact simulation. A configuration naming the
// exact tier is refused, as NewSystem refuses an analytic one: Run is
// what chooses between them.
func Estimate(cfg Config, _ RunOptions) (Result, error) {
	r, err := resolve(cfg)
	if err != nil {
		return Result{}, err
	}
	if r.fidelity != fidelity.Analytic {
		return Result{}, fmt.Errorf("ringmesh: Estimate answers fidelity %q only, not %q; use Run", fidelity.Analytic, r.fidelity)
	}
	return r.estimate()
}

func (r resolved) estimate() (Result, error) {
	cr, bound, err := fidelity.Estimate(r.plan, r.sys)
	if err != nil {
		return Result{}, err
	}
	res := fromCore(cr)
	res.Fidelity = fidelity.Analytic
	if bound != nil {
		res.ErrorBound = &ErrorBound{MaxRelErr: bound.MaxRelErr, Basis: bound.Basis}
	}
	return res, nil
}

// Fidelities returns the valid values for Config.Fidelity — the fixed
// pair of answer tiers (the serving daemon additionally accepts
// "auto").
func Fidelities() []string { return []string{fidelity.Analytic, fidelity.Simulate} }

// CanonicalTopology returns the configuration's resolved geometry —
// the model's canonical notation, which System.Topology would report,
// and the processor count — without building the system.
func CanonicalTopology(cfg Config) (topology string, pms int, err error) {
	r, err := resolve(cfg)
	if err != nil {
		return "", 0, err
	}
	return r.plan.Topology, r.plan.PMs, nil
}

// Topologies returns the names of all registered interconnect models,
// sorted; valid values for Config.Network.
func Topologies() []string { return network.Names() }

// OptimalRingTopology returns the best hierarchy (paper Table 2
// methodology) for the given processor count and cache line size, in
// colon notation.
func OptimalRingTopology(nodes, lineBytes int) (string, error) {
	spec, err := network.RingTopologyFor(nodes, lineBytes)
	if err != nil {
		return "", err
	}
	return spec.String(), nil
}

// EnumerateRingTopologies lists every admissible hierarchy for the
// given node count: at most maxLevels levels, internal branching of
// 2..maxBranch, and leaf rings of at most maxLeaf PMs.
func EnumerateRingTopologies(nodes, maxLevels, maxBranch, maxLeaf int) []string {
	specs := topo.EnumerateRingSpecs(nodes, maxLevels, maxBranch, maxLeaf)
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.String()
	}
	return out
}

// SingleRingCapacity returns the paper's conservative single-ring
// node limit for a cache line size (12/8/6/4 for 16/32/64/128 bytes),
// or 0 for unsupported sizes.
func SingleRingCapacity(lineBytes int) int {
	return network.SingleRingCapacity[lineBytes]
}
