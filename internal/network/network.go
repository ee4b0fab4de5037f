// Package network defines the topology-agnostic interconnect
// abstraction the rest of the simulator is built on: a Model
// interface every network implements, and a string-keyed registry of
// topology factories so that adding a new interconnect (a torus, a
// hybrid ring-mesh) is a one-package drop-in — register a factory and
// every layer above (system assembly, sweeps, experiments, command
// line tools) can drive it without modification.
//
// The split of responsibilities:
//
//   - A Factory resolves a Config (what the user asked for) into a
//     Plan (everything the assembly layer must know before the PMs
//     exist: node count, clocking, packet sizing, locality pattern).
//   - The Plan's Build hook then constructs the Model proper, wired
//     to the per-PM injection/delivery ports.
//   - The Model is a sim.Component plus the small measurement surface
//     the batch-means runner needs (buffered-flit accounting, a stats
//     snapshot, invariant checks).
//
// Packets enter a Model through the PM ports it was built with (the
// network pulls pending request/response packets during its commit
// phase — the paper's NIC injection-queue model) and leave through
// node.Port.Deliver.
package network

import (
	"fmt"
	"sort"
	"sync"

	"ringmesh/internal/fault"
	"ringmesh/internal/metrics"
	"ringmesh/internal/node"
	"ringmesh/internal/packet"
	"ringmesh/internal/sim"
	"ringmesh/internal/trace"
	"ringmesh/internal/workload"
)

// Config is the topology-agnostic network configuration. Each model
// interprets the fields it understands and ignores the rest (the same
// contract as a shared flag set), so one Config type can describe any
// registered topology.
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

// Stats is a topology-agnostic snapshot of a model's utilization
// counters since the last ResetUtilization.
type Stats struct {
	// PerLevel is link utilization per hierarchy level in [0,1]
	// (index 0 = top/global level); nil for flat networks.
	PerLevel []float64
	// Link is the aggregate link utilization in [0,1] for flat
	// networks (zero when PerLevel is the meaningful view).
	Link float64
}

// Model is one interconnect: a synchronously clocked component that
// carries packets between the PM ports it was built with.
type Model interface {
	sim.Component
	// BufferedFlits reports the flits currently resident in the
	// network's buffers (its in-flight load), for liveness accounting
	// and conservation tests.
	BufferedFlits() int
	// Stats snapshots the utilization counters.
	Stats() Stats
	// ResetUtilization clears the counters (called at warmup end).
	ResetUtilization()
	// SetTracer attaches an optional packet-lifecycle recorder
	// (nil-safe).
	SetTracer(*trace.Recorder)
	// DescribeMetrics registers the model's instruments — link
	// utilization ratios, queue occupancy gauges, stall counters —
	// into reg (nil-safe: a nil registry leaves the model
	// uninstrumented at zero cost). Instrumentation is
	// observation-only: attaching a registry must not change any
	// simulation result.
	DescribeMetrics(reg *metrics.Registry)
	// CheckInvariants audits the model's internal invariants (buffer
	// bounds, flow-control bookkeeping, deadlock-freedom
	// preconditions) and returns an error naming the first one
	// violated, or nil. The runner calls it after every run, property
	// tests after every tick.
	CheckInvariants() error
	// ApplyFaultPlan materializes and installs the plan's fault
	// schedule. Called at most once, after construction and before the
	// first tick. Implementations must be deterministic — the same
	// (plan, topology) pair always yields the same schedule — and an
	// empty plan must leave results bit-identical to no plan at all.
	ApplyFaultPlan(p *fault.Plan) error
	// Partition describes the model's ownership sharding for parallel
	// execution — groups of components such that no two shards commit
	// to the same buffers (per-row for the mesh) — or nil to decline,
	// as a model does when sharding would not pay (every ring) or has
	// nothing to cut; callers then stay on the serial path. Partitions
	// must be observation-equivalent: executing one at any worker count
	// yields results bit-identical to the serial schedule (the golden
	// fixed-seed tests pin this). A non-nil partition must hold at
	// least two shards. Called at most once, after construction and any
	// fault-plan installation, before the first tick.
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
	// Name is the registry key that produced this plan.
	Name string
	// Topology is the canonical resolved shape (e.g. "3:3:8", "8x8").
	Topology string
	// PMs is the number of processing modules the network connects.
	PMs int
	// TicksPerCycle is engine ticks per PM clock cycle (>1 when part
	// of the network is clocked faster than the PMs).
	TicksPerCycle int64
	// Sizing is the packet sizing rule (flit width, header flits).
	Sizing packet.Sizing
	// Locality returns the M-MRP target sampler for access-region
	// fraction r over this topology's distance metric.
	Locality func(r float64) (workload.Pattern, error)
	// Description is a one-line human-readable summary.
	Description string
	// Build constructs the model attached to the given PM ports. The
	// caller registers the returned Model on the engine (period 1);
	// models with internally faster clocks use TicksPerCycle to slow
	// the rest of the system down instead.
	Build func(ports []node.Port, engine *sim.Engine) (Model, error)
}

// Factory resolves a Config into a Plan, validating it in the
// process.
type Factory func(cfg Config) (*Plan, error)

var (
	regMu     sync.RWMutex
	factories = map[string]Factory{}
)

// Register adds a topology factory under a name. It panics on an
// empty name, a nil factory, or a duplicate registration — all are
// programmer errors in an init chain, not runtime conditions.
func Register(name string, f Factory) {
	if name == "" {
		panic("network: Register with empty topology name")
	}
	if f == nil {
		panic(fmt.Sprintf("network: Register(%q) with nil factory", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("network: topology %q registered twice", name))
	}
	factories[name] = f
}

// New resolves a registered topology into a Plan.
func New(name string, cfg Config) (*Plan, error) {
	regMu.RLock()
	f, ok := factories[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("network: unknown topology %q (registered: %v)", name, Names())
	}
	plan, err := f(cfg)
	if err != nil {
		return nil, err
	}
	plan.Name = name
	return plan, nil
}

// Names lists the registered topology names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(factories))
	for name := range factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
