// Package network defines the interconnect abstraction the rest of the
// simulator is built on: a Model interface both of the paper's networks
// implement — hierarchical rings and square 2D meshes — and New, the one
// place that turns a family name and a Config into a resolved Plan.
// Every layer above (system assembly, sweeps, experiments, the analytic
// tier, command-line tools) drives either family through that Plan.
//
// The split of responsibilities:
//
//   - New resolves a Config (what the user asked for) into a Plan
//     (everything the assembly layer must know before the PMs exist:
//     node count, clocking, packet sizing, locality pattern, and the
//     request as the family reads it).
//   - The Plan's Build hook then constructs the Model proper, wired
//     to the per-PM injection/delivery ports.
//   - The Model is a sim.Component plus the small measurement surface
//     the batch-means runner needs (its links, metrics views,
//     invariant checks, a stall report).
//
// Packets enter a Model through the PM ports it was built with (the
// network pulls pending request/response packets during its commit
// phase — the paper's NIC injection-queue model) and leave through
// node.Port.Deliver.
package network

import (
	"fmt"

	"ringmesh/internal/metrics"
	"ringmesh/internal/node"
	"ringmesh/internal/packet"
	"ringmesh/internal/sim"
	"ringmesh/internal/trace"
	"ringmesh/internal/workload"
)

// Config is the topology-agnostic network configuration. Each family
// interprets the fields it understands and ignores the rest (the same
// contract as a shared flag set), so one Config type can describe
// either; Plan.Net is the request with the ignored fields zeroed.
type Config struct {
	// Topology is the model-specific shape in its canonical notation:
	// ring hierarchies use the paper's colon notation ("2:3:4"),
	// meshes accept "KxK". Empty means derive the shape from Nodes.
	Topology string
	// Nodes is the processor count, used when Topology is empty (and
	// cross-checked against it when both are set).
	Nodes int
	// LineBytes is the cache line size: 16, 32, 64 or 128.
	LineBytes int
	// BufferFlits is the router input buffer depth in flits (mesh
	// family; 0 selects a cache-line-sized buffer).
	BufferFlits int
	// DoubleSpeedGlobal clocks the global ring at twice the PM clock
	// (ring family, paper Section 6).
	DoubleSpeedGlobal bool
	// SlottedSwitching selects the Hector/NUMAchine slotted-ring
	// technique instead of wormhole switching (ring family).
	SlottedSwitching bool
	// IRIQueueFlits overrides the inter-ring interface queue depth in
	// flits (ring family; 0 means one cache-line packet, the paper's
	// value).
	IRIQueueFlits int
	// UnsafeNoVC disables the ring family's virtual channels and
	// bubble flow control (wormhole switching only), reproducing the
	// paper-era hierarchy deadlock the VC design removes. It exists to
	// exercise stall forensics against a genuine wait-for cycle and
	// for ablation studies; never set it in measurement runs.
	UnsafeNoVC bool
}

// Model is one interconnect: a synchronously clocked component that
// carries packets between the PM ports it was built with.
type Model interface {
	sim.Component
	// Links lists the model's links once, as labeled groups of the
	// utilization counters its tick keeps: one per ring level, or one
	// per mesh direction. The runner owns everything done with them
	// (the warmup reset, the <family>_link_util series, the Result's
	// utilization), so a model never walks its own counters.
	Links() []sim.LinkGroup
	// SetTracer attaches an optional packet-lifecycle recorder
	// (nil-safe).
	SetTracer(*trace.Recorder)
	// DescribeMetrics registers read views of the model's state — queue
	// occupancy gauges, the stall and turn counts it always keeps —
	// into reg, which is non-nil: the runner calls it only when metrics
	// are enabled, after registering the link series. Registering must
	// not change the tick, so no simulation result can depend on it.
	DescribeMetrics(reg *metrics.Registry)
	// CheckInvariants audits the model's internal invariants (buffer
	// bounds, flow-control bookkeeping, deadlock-freedom
	// preconditions) and returns an error naming the first one
	// violated, or nil. The runner calls it after every run, property
	// tests after every tick.
	CheckInvariants() error
	// Partition describes the model's compute sharding for parallel
	// execution — shards that together stage what the model's Compute
	// stages, each writing only its own staging (per-row for the mesh)
	// — or nil to decline, as a model does when sharding would not pay
	// (every ring) or has nothing to cut; callers then stay on the
	// serial path. The model's Commit still runs serially after the
	// shards, so computing them at any worker count yields results
	// bit-identical to the serial schedule (the golden fixed-seed tests
	// pin this). A non-nil partition must hold at least two shards.
	// Called at most once, after construction, before the first tick.
	Partition() *sim.Partition
	// BuildStallReport snapshots buffer occupancy, the wait-for graph
	// among blocked senders, and the oldest in-flight packets when the
	// engine watchdog trips (wired to sim.Engine.Diagnose by the
	// assembly layer). It runs on a frozen system, may be O(network
	// size), and must not mutate model state.
	BuildStallReport(now int64) *sim.StallReport
}

// Plan is a resolved network blueprint: everything the assembly layer
// needs to size, clock and wire a system before the PMs exist.
type Plan struct {
	// Name is the family New resolved: "ring" or "mesh".
	Name string
	// PerLevel says the model's link groups are hierarchy levels, each
	// reported on its own (Result.RingUtilization), rather than parts
	// of one aggregate (Result.MeshUtilization).
	PerLevel bool
	// Topology is the canonical resolved shape (e.g. "3:3:8", "8x8").
	Topology string
	// PMs is the number of processing modules the network connects.
	PMs int
	// Sizing is the packet sizing rule (flit width, header flits).
	Sizing packet.Sizing
	// Locality returns the M-MRP target sampler for access-region
	// fraction r over this topology's distance metric.
	Locality func(r float64) (workload.Pattern, error)
	// Description is a one-line human-readable summary.
	Description string
	// Net is the request as this family reads it: the Config with
	// every field the family ignores set to zero (a ring's BufferFlits;
	// a mesh's DoubleSpeedGlobal, SlottedSwitching, IRIQueueFlits and
	// UnsafeNoVC). The cache key, the analytic tier's envelope and its
	// validation bound all read it, so a foreign field can never change
	// an answer.
	Net Config
	// Build constructs the model attached to the given PM ports. The
	// caller registers the returned Model on the engine, whose tick is
	// one PM cycle; a model with a faster clock runs its extra cycles
	// inside its own tick.
	Build func(ports []node.Port, engine *sim.Engine) (Model, error)
}

// New resolves a family name and a Config into a Plan. A geometry
// needs at least 2 PMs: on one, every access is local, no latency is
// measured and the run has no confidence interval.
func New(name string, cfg Config) (*Plan, error) {
	var (
		plan *Plan
		err  error
	)
	switch name {
	case "ring":
		plan, err = ringPlan(cfg)
	case "mesh":
		plan, err = meshPlan(cfg)
	default:
		return nil, fmt.Errorf("network: unknown topology %q (registered: %v)", name, Names())
	}
	if err != nil {
		return nil, err
	}
	if plan.PMs < 2 {
		return nil, fmt.Errorf("network: %s %s has %d PM; a run needs at least 2 PMs", name, plan.Topology, plan.PMs)
	}
	plan.Name = name
	return plan, nil
}

// Names lists the family names New accepts, sorted.
func Names() []string { return []string{"mesh", "ring"} }
