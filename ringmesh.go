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
// Topologies lists the network family names: "mesh" and "ring".
//
// Results report the paper's metrics: average round-trip access
// latency in processor clock cycles (with a 95% confidence interval
// from the batch-means method) and network utilization. A run
// therefore needs a schedule of at least 2 batches and a geometry of
// at least 2 PMs; anything less is refused as a configuration error.
//
// Each run shape is declared once. Workload, RunOptions, Result,
// ErrorBound and StallDiagnosis are aliases of the internal
// declarations the simulator itself fills in (workload.MMRP,
// core.RunConfig, core.Result, core.ErrorBound, sim.StallDiagnosis);
// the field docs and JSON tags live there, and no code converts
// between a public and an internal copy.
package ringmesh

import (
	"context"
	"errors"
	"fmt"
	"io"

	"ringmesh/internal/core"
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

// The run shapes, each declared once in the package that fills it in.
// Their JSON names (like Config's and SweepPoint's) are the ringmeshd
// serving API's wire format; see the README's Serving section.
type (
	// Workload is the paper's M-MRP synthetic workload (R, C, T and the
	// read mix; see workload.MMRP).
	Workload = workload.MMRP
	// RunOptions is the batch-means measurement schedule, at least 2
	// batches (see core.RunConfig).
	RunOptions = core.RunConfig
	// Result reports one run's measurements, exact or analytic (see
	// core.Result).
	Result = core.Result
	// ErrorBound is the recorded validation envelope on an analytic
	// Result (see core.ErrorBound).
	ErrorBound = core.ErrorBound
	// StallDiagnosis is the model's forensic snapshot when the
	// no-progress watchdog trips (see sim.StallDiagnosis).
	StallDiagnosis = sim.StallDiagnosis
)

// PaperWorkload returns the paper's baseline workload: R=1.0, C=0.04,
// T=4, 70% reads.
func PaperWorkload() Workload { return workload.PaperDefaults() }

// Config describes a system over either interconnect. Network selects
// the model by family name; the topology-specific fields (Topology,
// BufferFlits, DoubleSpeedGlobal, ...) are interpreted by the model
// that understands them and ignored by the other, the same contract as
// a shared command-line flag set. An ignored field changes nothing: not
// the run, not the cache key, not the analytic answer.
type Config struct {
	// Network is the interconnect family: "ring" (hierarchical rings)
	// or "mesh" (square 2D bi-directional mesh); see Topologies().
	Network string `json:"network"`
	// Topology names the geometry in the model's own notation — the
	// paper's colon notation for rings ("2:3:4", "12"), "KxK" for
	// meshes. Leave empty and set Nodes to derive it from the
	// processor count.
	Topology string `json:"topology,omitempty"`
	// Nodes is the processor count, used when Topology is empty (and
	// cross-checked against it otherwise). Ring hierarchies derive
	// via the paper's Table 2 methodology; meshes must be square. Every
	// geometry needs at least 2 PMs.
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
	// default), no registry exists and nothing samples: the models
	// still keep their plain always-on counts (stalls, turns), which
	// only a registry reads.
	Metrics bool `json:"metrics,omitempty"`
	// MetricsIntervalCycles is the sampling period in PM clock cycles
	// (0 = default 100). Only meaningful with Metrics set.
	MetricsIntervalCycles int64 `json:"metrics_interval_cycles,omitempty"`
	// UnsafeNoVC disables the ring model's virtual channels and bubble
	// flow control (wormhole only), restoring the paper-era hierarchy
	// deadlock. For forensics demonstrations and ablations — never for
	// measurement runs.
	UnsafeNoVC bool `json:"unsafe_no_vc,omitempty"`
	// Workers, when > 1, computes a mesh's tick across that many worker
	// goroutines, one shard per router row, and commits it on one.
	// Meshes only; rings run serial at any value (their tick is shorter
	// than the barriers a sharded one crosses). Execution-only: results
	// and traces are bit-identical at any worker count, so Workers does
	// not enter result cache keys (see CacheKey).
	Workers int `json:"workers,omitempty"`
	// PhaseStats, when true together with Workers > 1, times every
	// shard's compute, the serial commit and every worker's barrier waits
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

// DefaultRunOptions returns the schedule used for the paper
// reproduction: 4000-cycle warmup plus eight 4000-cycle batches.
func DefaultRunOptions() RunOptions { return core.DefaultRunConfig() }

// QuickRunOptions returns a shortened schedule for smoke tests.
func QuickRunOptions() RunOptions { return core.QuickRunConfig() }

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
	// Attempts is always 1: the daemon simulates every point once. It
	// is kept on the wire for existing clients.
	Attempts int `json:"attempts"`
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
	return se.Report.Diagnosis()
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
// a configuration becomes a geometry and a validated workload.
// NewSystem, Estimate, CacheKey and
// CanonicalTopology are each a few lines over it.
type resolved struct {
	// fidelity is the normalized answer tier (fidelity.Simulate or
	// fidelity.Analytic).
	fidelity string
	// plan is the geometry as network.New resolved it.
	plan *network.Plan
	// sys is the configuration as both tiers read it: network,
	// validated workload, memory latency with its default filled in,
	// seed. The observation attachments (tracer,
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
	if err := cfg.Workload.Validate(); err != nil {
		return resolved{}, err
	}
	memLatency := cfg.MemLatencyCycles
	if memLatency == 0 {
		memLatency = node.DefaultMemLatency
	}
	return resolved{fidelity: fid, plan: plan, sys: core.SystemConfig{
		Network:    cfg.Network,
		Net:        net,
		Workload:   cfg.Workload,
		MemLatency: memLatency,
		Seed:       cfg.Seed,
		Histogram:  cfg.Histogram,
		Workers:    cfg.Workers,
		PhaseStats: cfg.PhaseStats,
	}}, nil
}

// NewSystem builds a multiprocessor over the interconnect named by
// cfg.Network, resolved through network.New. Only exact
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
	return s.inner.RunCtx(ctx, opt)
}

// StepCycles advances the simulation by n PM clock cycles without
// collecting batch statistics (useful for warm-starting or tracing).
func (s *System) StepCycles(n int64) error { return s.inner.StepCycles(n) }

// Parallel reports whether ticks compute on the parallel worker engine
// (Config.Workers > 1 on a mesh; rings run serial); false means the
// serial path runs.
func (s *System) Parallel() bool { return s.inner.Engine().Parallel() }

// PhaseStats returns the parallel engine's phase-timing accumulator:
// per-shard compute durations, the serial commit's duration and
// per-worker barrier-wait distributions. Nil unless the system was built with Workers > 1 and
// Config.PhaseStats and the model partitioned itself. Read it only
// after a run has completed (the accumulator is unsynchronized by
// design).
func (s *System) PhaseStats() *obs.PhaseStats { return s.inner.PhaseStats() }

// Close releases the engine's worker goroutines (parallel mode; no-op
// otherwise). Run and RunContext already release them on return, so
// Close only matters for callers driving the system via StepCycles.
func (s *System) Close() { s.inner.Close() }

// OnCycle registers f to be called once at the end of every PM clock
// cycle with the cycle just completed and the number of flit movements
// it produced — the per-cycle observability hook for instantaneous
// load traces. Pass nil to detach. The hook composes with the metrics
// sampler, so both can observe every cycle. A double-speed global
// ring's two steps of a cycle count as one call.
func (s *System) OnCycle(f func(tick int64, flitsMoved uint64)) {
	s.inner.OnCycle(f)
}

// MetricSample is one sampled metrics row (see Config.Metrics).
type MetricSample struct {
	// Cycle is the number of PM clock cycles completed when the sample
	// was taken.
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
	out := make([]MetricSample, len(raw))
	for i, r := range raw {
		out[i] = MetricSample{Cycle: r.Tick + 1, Values: r.Values}
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

// Describe returns a one-line summary of the system.
func (s *System) Describe() string { return s.inner.Describe() }

// Topology returns the canonical resolved geometry — colon notation
// for rings ("3:3:8"), "KxK" for meshes — even when the system was
// configured by node count alone.
func (s *System) Topology() string { return s.inner.Topology() }

// Run builds and measures a system over either interconnect in one
// call. It is the one place that chooses the answer tier from
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
// switching, double-speed global rings, open-loop or deterministic
// workloads — rather than returning an unlabeled guess;
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

func (r resolved) estimate() (Result, error) { return fidelity.Estimate(r.plan, r.sys) }

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

// Topologies returns the two interconnect family names, sorted: the
// valid values for Config.Network.
func Topologies() []string { return network.Names() }

// OptimalRingTopology returns the paper's Table 2 hierarchy for the
// given processor count and cache line size, in colon notation: among
// the hierarchies with leaf rings no larger than SingleRingCapacity
// and internal branching of at most three, the one with the fewest
// levels, then the fewest average hops. It is the hierarchy a ring
// Config with only Nodes resolves to; fewer than 2 processors are
// refused.
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
