package network

import (
	"reflect"
	"strings"
	"testing"

	"ringmesh/internal/mesh"
	"ringmesh/internal/node"
	"ringmesh/internal/packet"
	"ringmesh/internal/ring"
	"ringmesh/internal/sim"
	"ringmesh/internal/topo"
	"ringmesh/internal/workload"
)

// Both families' models implement Model themselves; the plans hand
// them out unwrapped.
var (
	_ Model = (*ring.Network)(nil)
	_ Model = (*ring.SlottedNetwork)(nil)
	_ Model = (*mesh.Network)(nil)
)

func TestNewUnknownTopology(t *testing.T) {
	_, err := New("hypercube", Config{Nodes: 64, LineBytes: 32})
	if err == nil {
		t.Fatal("expected an error for an unknown topology")
	}
	// The error must name the alternatives.
	for _, want := range []string{"hypercube", "ring", "mesh"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestNamesListsBuiltins(t *testing.T) {
	if names := Names(); !reflect.DeepEqual(names, []string{"mesh", "ring"}) {
		t.Fatalf("Names() = %v, want [mesh ring]", names)
	}
}

func TestRingPlanResolution(t *testing.T) {
	// Derivation from a node count follows the paper's Table 2.
	plan, err := New("ring", Config{Nodes: 72, LineBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Name != "ring" || plan.Topology != "3:3:8" || plan.PMs != 72 {
		t.Errorf("plan = %q %q %d PMs, want ring 3:3:8 72", plan.Name, plan.Topology, plan.PMs)
	}
	// Topology and Nodes are cross-checked when both are given.
	if _, err := New("ring", Config{Topology: "2:3:4", Nodes: 25, LineBytes: 32}); err == nil {
		t.Error("expected a PM-count mismatch error")
	}
	if _, err := New("ring", Config{LineBytes: 32}); err == nil {
		t.Error("expected an error with neither Topology nor Nodes")
	}
}

func TestMeshPlanResolution(t *testing.T) {
	plan, err := New("mesh", Config{Nodes: 64, LineBytes: 32, BufferFlits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Name != "mesh" || plan.Topology != "8x8" || plan.PMs != 64 {
		t.Errorf("plan = %q %q %d PMs, want mesh 8x8 64", plan.Name, plan.Topology, plan.PMs)
	}
	// The "KxK" notation resolves and cross-checks.
	byName, err := New("mesh", Config{Topology: "8x8", LineBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	if byName.PMs != 64 {
		t.Errorf("8x8 resolved to %d PMs, want 64", byName.PMs)
	}
	if _, err := New("mesh", Config{Topology: "8x8", Nodes: 60, LineBytes: 32}); err == nil {
		t.Error("expected a PM-count mismatch error")
	}

	// Non-square node counts are rejected.
	if _, err := New("mesh", Config{Nodes: 15, LineBytes: 32}); err == nil {
		t.Error("expected a non-square error")
	}
}

// TestFactoriesIgnoreForeignFields checks the shared-flag-set
// contract: fields a family doesn't read must not fail its resolution,
// so one Config can be built from a single command-line flag set, and
// Plan.Net must carry them as zero, so nothing keyed or judged on it
// can tell them apart.
func TestFactoriesIgnoreForeignFields(t *testing.T) {
	for _, tc := range []struct {
		name           string
		plain, foreign Config
	}{
		{"ring", Config{Nodes: 24, LineBytes: 32}, Config{Nodes: 24, LineBytes: 32, BufferFlits: 4}},
		{"mesh", Config{Nodes: 64, LineBytes: 32, BufferFlits: 4}, Config{Nodes: 64, LineBytes: 32, BufferFlits: 4,
			DoubleSpeedGlobal: true, SlottedSwitching: true, IRIQueueFlits: 8, UnsafeNoVC: true}},
	} {
		plan, err := New(tc.name, tc.foreign)
		if err != nil {
			t.Errorf("%s rejected a foreign field: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(plan.Net, tc.plain) {
			t.Errorf("%s Plan.Net = %+v, want the foreign fields zeroed: %+v", tc.name, plan.Net, tc.plain)
		}
	}
	// The fields a family reads pass through unchanged.
	own := Config{Topology: "2:4", LineBytes: 64, DoubleSpeedGlobal: true, IRIQueueFlits: 8}
	if plan, err := New("ring", own); err != nil || plan.Net != own {
		t.Errorf("ring Plan.Net = %+v, %v; want %+v", plan.Net, err, own)
	}
}

// stubPort is a do-nothing PM port for building models in tests.
type stubPort struct{}

func (stubPort) TakeResponse() (*packet.Packet, bool) { return nil, false }
func (stubPort) TakeRequest() (*packet.Packet, bool)  { return nil, false }
func (stubPort) Deliver(*packet.Packet, int64, bool)  {}
func (stubPort) BindPending(*uint64, uint64)          {}
func (stubPort) HasPending() bool                     { return false }

// TestBuiltinsAdvertiseCapabilities builds both families and asserts
// a fresh network passes its own invariant audit. (That each
// implements invariant checking, fault injection, partitioning and
// stall forensics is the Model interface's business: the compiler
// checks it.)
func TestBuiltinsAdvertiseCapabilities(t *testing.T) {
	cfgs := map[string][]Config{
		"ring": {
			{Topology: "2:3:4", LineBytes: 32},
			{Topology: "2:3:4", LineBytes: 32, SlottedSwitching: true},
		},
		"mesh": {
			{Topology: "4x4", LineBytes: 32, BufferFlits: 4},
		},
	}
	for name, list := range cfgs {
		for _, cfg := range list {
			plan, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			engine := &sim.Engine{}
			ports := make([]node.Port, plan.PMs)
			for i := range ports {
				ports[i] = stubPort{}
			}
			model, err := plan.Build(ports, engine)
			if err != nil {
				t.Fatal(err)
			}
			desc := name + " " + plan.Topology
			if err := model.CheckInvariants(); err != nil {
				t.Errorf("%s fresh network fails its own audit: %v", desc, err)
			}
		}
	}
}

// TestRankedRingSpecs: the ranking holds every admissible hierarchy
// once, ordered by levels and then average hops, with enumeration
// order kept among equal keys; RingTopologyFor is its first element.
func TestRankedRingSpecs(t *testing.T) {
	for cell := range PaperTable2 {
		p, line := cell[0], cell[1]
		ranked, err := RankedRingSpecs(p, line, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		enum := topo.EnumerateRingSpecs(p, 4, 3, SingleRingCapacity[line])
		pos := map[string]int{}
		for i, s := range enum {
			pos[s.String()] = i
		}
		if len(ranked) != len(enum) {
			t.Fatalf("%d PMs / %dB: %d ranked, %d enumerated", p, line, len(ranked), len(enum))
		}
		before := func(a, b topo.RingSpec) bool {
			if a.NumLevels() != b.NumLevels() {
				return a.NumLevels() < b.NumLevels()
			}
			if a.AverageRingHops() != b.AverageRingHops() {
				return a.AverageRingHops() < b.AverageRingHops()
			}
			return pos[a.String()] < pos[b.String()]
		}
		for i := 1; i < len(ranked); i++ {
			if !before(ranked[i-1], ranked[i]) {
				t.Errorf("%d PMs / %dB: %s ranked before %s", p, line, ranked[i-1], ranked[i])
			}
		}
		if pick, _ := RingTopologyFor(p, line); pick.String() != ranked[0].String() {
			t.Errorf("%d PMs / %dB: RingTopologyFor %s, ranking starts %s", p, line, pick, ranked[0])
		}
	}
	for _, c := range []struct {
		pms, line int
		want      string
	}{
		{1, 32, "at least 2 PMs"},
		{0, 32, "at least 2 PMs"},
		{24, 48, "unsupported line size"},
		{7, 128, "no admissible"},
	} {
		if _, err := RankedRingSpecs(c.pms, c.line, 4, 3); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("RankedRingSpecs(%d, %d) = %v; want %q", c.pms, c.line, err, c.want)
		}
	}
}

// countingPort is a PM that counts the Take calls its network makes
// and, of those, the ones made while it had nothing pending: the polls
// the pending bit spares.
type countingPort struct {
	*node.PM
	takes, idle int
}

func (c *countingPort) TakeResponse() (*packet.Packet, bool) {
	c.count()
	return c.PM.TakeResponse()
}

func (c *countingPort) TakeRequest() (*packet.Packet, bool) {
	c.count()
	return c.PM.TakeRequest()
}

func (c *countingPort) count() {
	c.takes++
	if !c.PM.HasPending() {
		c.idle++
	}
}

// portSet commits every PM, as the runner's PM component does.
type portSet []*countingPort

func (portSet) Compute(int64) {}
func (ps portSet) Commit(now int64) {
	for _, p := range ps {
		p.Commit(now)
	}
}

// At low load a network asks a PM for a packet only while its pending
// bit is set: over a run of every model, no NIC or router takes from a
// PM with nothing pending, while the PMs that have packets hand them
// over. The count is of calls, not time, so it holds on any machine.
func TestIdlePortsAreNotAsked(t *testing.T) {
	cfgs := []struct {
		family string
		cfg    Config
	}{
		{"ring", Config{Topology: "2:3:4", LineBytes: 32}},
		{"ring", Config{Topology: "2:3:4", LineBytes: 32, SlottedSwitching: true}},
		{"ring", Config{Topology: "2:3:4", LineBytes: 32, DoubleSpeedGlobal: true}},
		{"mesh", Config{Topology: "4x4", LineBytes: 32, BufferFlits: 4}},
	}
	for _, c := range cfgs {
		plan, err := New(c.family, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		wl := workload.MMRP{R: 0.2, C: 0.01, T: 4, ReadProb: 0.7}
		pattern, err := plan.Locality(wl.R)
		if err != nil {
			t.Fatal(err)
		}
		col := node.NewCollector()
		engine := &sim.Engine{}
		pms := make(portSet, plan.PMs)
		ports := make([]node.Port, plan.PMs)
		for id := range pms {
			pm, err := node.NewPM(id, node.Config{Workload: wl, Pattern: pattern, Sizing: plan.Sizing,
				LineBytes: c.cfg.LineBytes, Seed: 3}, col)
			if err != nil {
				t.Fatal(err)
			}
			pms[id] = &countingPort{PM: pm}
			ports[id] = pms[id]
		}
		engine.Register(pms, 1)
		model, err := plan.Build(ports, engine)
		if err != nil {
			t.Fatal(err)
		}
		engine.Register(model, 1)
		if err := engine.Run(5000); err != nil {
			t.Fatal(err)
		}
		if err := model.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		takes, idle := 0, 0
		for _, p := range pms {
			takes, idle = takes+p.takes, idle+p.idle
		}
		desc := plan.Description
		if col.Completed == 0 || takes == 0 {
			t.Fatalf("%s: %d takes, %d completions: the run carried no traffic", desc, takes, col.Completed)
		}
		if idle != 0 {
			t.Errorf("%s: %d of %d takes asked a PM with nothing pending", desc, idle, takes)
		}
	}
}
