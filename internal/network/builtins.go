package network

import (
	"cmp"
	"fmt"
	"slices"

	"ringmesh/internal/mesh"
	"ringmesh/internal/node"
	"ringmesh/internal/packet"
	"ringmesh/internal/ring"
	"ringmesh/internal/sim"
	"ringmesh/internal/topo"
	"ringmesh/internal/workload"
)

// ringPlan resolves a hierarchy. A ring ignores BufferFlits.
func ringPlan(cfg Config) (*Plan, error) {
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
	net := cfg
	net.BufferFlits = 0
	return &Plan{
		Topology: spec.String(),
		PMs:      pms,
		PerLevel: true,
		Sizing:   packet.RingSizing,
		Locality: func(r float64) (workload.Pattern, error) {
			return workload.NewRingLocality(pms, r)
		},
		Description: fmt.Sprintf("ring %s cl=%dB (%s)", spec, rc.LineBytes, rc.Switching),
		Net:         net,
		Build: func(ports []node.Port, engine *sim.Engine) (Model, error) {
			// Each constructor's error is returned beside a nil Model,
			// never beside a typed nil pointer.
			if rc.Switching == ring.Slotted {
				sn, err := ring.NewSlotted(rc, ports, engine)
				if err != nil {
					return nil, err
				}
				return sn, nil
			}
			wn, err := ring.New(rc, ports, engine)
			if err != nil {
				return nil, err
			}
			return wn, nil
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

// meshPlan resolves a square mesh. A mesh ignores the ring-only
// fields: DoubleSpeedGlobal, SlottedSwitching, IRIQueueFlits and
// UnsafeNoVC.
func meshPlan(cfg Config) (*Plan, error) {
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
		Topology: mc.Spec.String(),
		PMs:      nodes,
		Sizing:   packet.MeshSizing,
		Locality: func(r float64) (workload.Pattern, error) {
			return workload.NewMeshLocality(mc.Spec, r)
		},
		Description: fmt.Sprintf("mesh %s cl=%dB buf=%d", mc.Spec, mc.LineBytes, mc.BufferFlits),
		Net:         Config{Topology: cfg.Topology, Nodes: cfg.Nodes, LineBytes: cfg.LineBytes, BufferFlits: cfg.BufferFlits},
		Build: func(ports []node.Port, engine *sim.Engine) (Model, error) {
			net, err := mesh.New(mc, ports, engine)
			if err != nil {
				return nil, err
			}
			return net, nil
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
// for the given PM count and cache line size: the first of
// RankedRingSpecs with at most four levels and internal branching of
// at most three (the bisection-bandwidth limit the paper derives).
func RingTopologyFor(pms, lineBytes int) (topo.RingSpec, error) {
	specs, err := RankedRingSpecs(pms, lineBytes, 4, 3)
	if err != nil {
		return topo.RingSpec{}, err
	}
	return specs[0], nil
}

// RankedRingSpecs lists every admissible hierarchy for the given PM
// count and cache line size — at most maxLevels levels, internal
// branching of 2..maxBranch, leaf rings no larger than the single-ring
// capacity (12/8/6/4 PMs for 16/32/64/128-byte lines, Section 3) — in
// Table 2 order: fewest levels, then smallest average hop distance,
// ties in enumeration order. The first element is the pick; the list
// is never empty when err is nil. Fewer than 2 PMs is refused, as
// every run refuses it.
func RankedRingSpecs(pms, lineBytes, maxLevels, maxBranch int) ([]topo.RingSpec, error) {
	leaf, ok := SingleRingCapacity[lineBytes]
	if !ok {
		return nil, fmt.Errorf("network: unsupported line size %dB", lineBytes)
	}
	if pms < 2 {
		return nil, fmt.Errorf("network: a ring needs at least 2 PMs, got %d", pms)
	}
	specs := topo.EnumerateRingSpecs(pms, maxLevels, maxBranch, leaf)
	if len(specs) == 0 {
		return nil, fmt.Errorf("network: no admissible ring topology for %d PMs at %dB lines", pms, lineBytes)
	}
	slices.SortStableFunc(specs, func(a, b topo.RingSpec) int {
		if c := cmp.Compare(a.NumLevels(), b.NumLevels()); c != 0 {
			return c
		}
		return cmp.Compare(a.AverageRingHops(), b.AverageRingHops())
	})
	return specs, nil
}

// SingleRingCapacity is the paper's conservative single-ring node
// count per cache line size (Section 3, Figure 6): the largest ring
// that shows almost no degradation under R=1.0, C=0.04, T=4.
var SingleRingCapacity = map[int]int{16: 12, 32: 8, 64: 6, 128: 4}

// PaperTable2 is the paper's published Table 2: the hierarchy it
// lists for each (processors, cache line size) pair. RingTopologyFor
// is our procedure for it (it matches 26 of the 40 entries; the paper
// does not state its tie-break); the table2 experiment and topofind
// print the published entry beside that pick.
var PaperTable2 = map[[2]int]string{
	{4, 16}: "4", {4, 32}: "4", {4, 64}: "4", {4, 128}: "4",
	{6, 16}: "6", {6, 32}: "6", {6, 64}: "6", {6, 128}: "2:3",
	{8, 16}: "8", {8, 32}: "8", {8, 64}: "2:4", {8, 128}: "2:4",
	{12, 16}: "12", {12, 32}: "2:6", {12, 64}: "2:6", {12, 128}: "3:4",
	{18, 16}: "2:9", {18, 32}: "3:6", {18, 64}: "3:6", {18, 128}: "3:2:3",
	{24, 16}: "2:12", {24, 32}: "3:8", {24, 64}: "2:2:6", {24, 128}: "2:3:4",
	{36, 16}: "3:12", {36, 32}: "2:3:6", {36, 64}: "2:3:6", {36, 128}: "3:3:4",
	{54, 16}: "2:3:9", {54, 32}: "3:3:6", {54, 64}: "3:3:6", {54, 128}: "3:3:2:3",
	{72, 16}: "2:3:12", {72, 32}: "3:3:8", {72, 64}: "2:2:3:6", {72, 128}: "2:3:3:4",
	{108, 16}: "3:3:12", {108, 32}: "2:3:3:6", {108, 64}: "2:3:3:6", {108, 128}: "3:3:3:4",
}
