package network

import (
	"fmt"

	"ringmesh/internal/fault"
	"ringmesh/internal/mesh"
	"ringmesh/internal/metrics"
	"ringmesh/internal/node"
	"ringmesh/internal/packet"
	"ringmesh/internal/ring"
	"ringmesh/internal/sim"
	"ringmesh/internal/topo"
	"ringmesh/internal/trace"
	"ringmesh/internal/workload"
)

// The two built-in models of the paper. These factories are the only
// place in the codebase that knows ring from mesh; everything above
// resolves topologies through the registry.
func init() {
	Register("ring", ringFactory)
	Register("mesh", meshFactory)
}

// hierNet is the shared surface of the wormhole and slotted ring
// models: everything Model requires except the stats snapshot, plus
// the per-level utilization the snapshot is built from and the
// optional capabilities (invariant checking, fault injection, stall
// forensics, parallel partitioning) both built-ins implement.
// Embedding the interface makes the wrapper advertise the
// capabilities too.
type hierNet interface {
	sim.Component
	BufferedFlits() int
	ResetUtilization()
	CheckInvariants() error
	ApplyFaultPlan(*fault.Plan) error
	BuildStallReport(now int64) *sim.StallReport
	SetTracer(*trace.Recorder)
	DescribeMetrics(*metrics.Registry)
	Partition() *sim.Partition
	UtilizationByLevel() []float64
}

// hierModel adapts a hierarchical network (per-level utilization) to
// the Model stats snapshot.
type hierModel struct{ hierNet }

func (m hierModel) Stats() Stats { return Stats{PerLevel: m.UtilizationByLevel()} }

// flatNet is the surface of a flat network reporting one aggregate
// link utilization (the mesh model).
type flatNet interface {
	sim.Component
	BufferedFlits() int
	ResetUtilization()
	CheckInvariants() error
	ApplyFaultPlan(*fault.Plan) error
	BuildStallReport(now int64) *sim.StallReport
	SetTracer(*trace.Recorder)
	DescribeMetrics(*metrics.Registry)
	Partition() *sim.Partition
	Utilization() float64
}

// flatModel adapts a flat network to the Model stats snapshot.
type flatModel struct{ flatNet }

func (m flatModel) Stats() Stats { return Stats{Link: m.Utilization()} }

func ringFactory(cfg Config) (*Plan, error) {
	spec, err := ringSpecFor(cfg)
	if err != nil {
		return nil, err
	}
	sw := ring.Wormhole
	if cfg.SlottedSwitching {
		sw = ring.Slotted
	}
	rc := ring.Config{
		Spec:              spec,
		LineBytes:         cfg.LineBytes,
		DoubleSpeedGlobal: cfg.DoubleSpeedGlobal,
		IRIQueueFlits:     cfg.IRIQueueFlits,
		Switching:         sw,
		UnsafeNoVC:        cfg.UnsafeNoVC,
	}
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	pms := spec.PMs()
	return &Plan{
		Topology:      spec.String(),
		PMs:           pms,
		TicksPerCycle: rc.TicksPerCycle(),
		Sizing:        packet.RingSizing,
		Locality: func(r float64) (workload.Pattern, error) {
			return workload.NewRingLocality(pms, r)
		},
		Description: fmt.Sprintf("ring %s cl=%dB (%s)", spec, rc.LineBytes, rc.Switching),
		Build: func(ports []node.Port, engine *sim.Engine) (Model, error) {
			if rc.Switching == ring.Slotted {
				sn, err := ring.NewSlotted(rc, ports, engine)
				if err != nil {
					return nil, err
				}
				return hierModel{sn}, nil
			}
			wn, err := ring.New(rc, ports, engine)
			if err != nil {
				return nil, err
			}
			return hierModel{wn}, nil
		},
	}, nil
}

// ringSpecFor resolves the hierarchy: parse Topology when given
// (cross-checking Nodes), otherwise derive the paper's Table 2 shape
// from Nodes.
func ringSpecFor(cfg Config) (topo.RingSpec, error) {
	if cfg.Topology != "" {
		spec, err := topo.ParseRingSpec(cfg.Topology)
		if err != nil {
			return topo.RingSpec{}, err
		}
		if cfg.Nodes > 0 && spec.PMs() != cfg.Nodes {
			return topo.RingSpec{}, fmt.Errorf(
				"network: ring topology %s has %d PMs but Nodes = %d",
				spec, spec.PMs(), cfg.Nodes)
		}
		return spec, nil
	}
	if cfg.Nodes > 0 {
		return RingTopologyFor(cfg.Nodes, cfg.LineBytes)
	}
	return topo.RingSpec{}, fmt.Errorf("network: ring needs Topology or Nodes")
}

func meshFactory(cfg Config) (*Plan, error) {
	nodes, err := meshNodesFor(cfg)
	if err != nil {
		return nil, err
	}
	mc := mesh.Config{
		Spec:        topo.MeshForPMs(nodes),
		LineBytes:   cfg.LineBytes,
		BufferFlits: cfg.BufferFlits,
	}
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	return &Plan{
		Topology:      mc.Spec.String(),
		PMs:           nodes,
		TicksPerCycle: 1,
		Sizing:        packet.MeshSizing,
		Locality: func(r float64) (workload.Pattern, error) {
			return workload.NewMeshLocality(mc.Spec, r)
		},
		Description: fmt.Sprintf("mesh %s cl=%dB buf=%d", mc.Spec, mc.LineBytes, mc.BufferFlits),
		Build: func(ports []node.Port, engine *sim.Engine) (Model, error) {
			net, err := mesh.New(mc, ports, engine)
			if err != nil {
				return nil, err
			}
			return flatModel{net}, nil
		},
	}, nil
}

// meshNodesFor resolves the processor count from Nodes and/or a
// "KxK" topology string.
func meshNodesFor(cfg Config) (int, error) {
	nodes := cfg.Nodes
	if cfg.Topology != "" {
		spec, err := topo.ParseMeshSpec(cfg.Topology)
		if err != nil {
			return 0, err
		}
		if nodes > 0 && spec.PMs() != nodes {
			return 0, fmt.Errorf("network: mesh topology %s has %d PMs but Nodes = %d",
				spec, spec.PMs(), nodes)
		}
		nodes = spec.PMs()
	}
	if nodes <= 0 {
		return 0, fmt.Errorf("network: mesh needs Topology or Nodes")
	}
	if nodes > topo.MaxPMs {
		return 0, fmt.Errorf("network: mesh of %d PMs exceeds %d", nodes, topo.MaxPMs)
	}
	if !topo.Square(nodes) {
		return 0, fmt.Errorf("network: mesh needs a square node count, got %d", nodes)
	}
	return nodes, nil
}

// RingTopologyFor returns the hierarchy the paper's Table 2 would use
// for the given PM count and cache line size: leaf rings hold at most
// the single-ring capacity for that line size (12/8/6/4 PMs for
// 16/32/64/128-byte lines, Section 3) and every internal ring carries
// at most three children (the bisection-bandwidth limit the paper
// derives). Among the admissible hierarchies it picks BestRingSpec.
func RingTopologyFor(pms, lineBytes int) (topo.RingSpec, error) {
	leaf, ok := SingleRingCapacity[lineBytes]
	if !ok {
		return topo.RingSpec{}, fmt.Errorf("network: unsupported line size %dB", lineBytes)
	}
	specs := topo.EnumerateRingSpecs(pms, 4, 3, leaf)
	if len(specs) == 0 {
		return topo.RingSpec{}, fmt.Errorf("network: no admissible ring topology for %d PMs at %dB lines", pms, lineBytes)
	}
	return BestRingSpec(specs), nil
}

// BestRingSpec picks, from a non-empty list of candidate hierarchies,
// the one with the fewest levels, then the smallest average hop
// distance (the first such in list order).
func BestRingSpec(specs []topo.RingSpec) topo.RingSpec {
	best := specs[0]
	bestHops := best.AverageRingHops()
	for _, s := range specs[1:] {
		h := s.AverageRingHops()
		if s.NumLevels() < best.NumLevels() ||
			(s.NumLevels() == best.NumLevels() && h < bestHops) {
			best, bestHops = s, h
		}
	}
	return best
}

// SingleRingCapacity is the paper's conservative single-ring node
// count per cache line size (Section 3, Figure 6): the largest ring
// that shows almost no degradation under R=1.0, C=0.04, T=4.
var SingleRingCapacity = map[int]int{16: 12, 32: 8, 64: 6, 128: 4}
