package network

import (
	"strings"
	"testing"

	"ringmesh/internal/node"
	"ringmesh/internal/packet"
	"ringmesh/internal/sim"
)

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic = %v, want it to contain %q", r, want)
		}
	}()
	fn()
}

func TestRegisterDuplicatePanics(t *testing.T) {
	// "ring" is registered by the built-in init chain.
	mustPanic(t, "registered twice", func() {
		Register("ring", func(Config) (*Plan, error) { return &Plan{}, nil })
	})
}

func TestRegisterRejectsBadArguments(t *testing.T) {
	mustPanic(t, "empty topology name", func() {
		Register("", func(Config) (*Plan, error) { return &Plan{}, nil })
	})
	mustPanic(t, "nil factory", func() {
		Register("torus", nil)
	})
}

func TestNewUnknownTopology(t *testing.T) {
	_, err := New("hypercube", Config{Nodes: 64, LineBytes: 32})
	if err == nil {
		t.Fatal("expected an error for an unregistered topology")
	}
	// The error must name the registered alternatives.
	for _, want := range []string{"hypercube", "ring", "mesh"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestNamesListsBuiltins(t *testing.T) {
	names := Names()
	if len(names) < 2 {
		t.Fatalf("Names() = %v, want at least ring and mesh", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() = %v, not sorted", names)
		}
	}
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	if !found["ring"] || !found["mesh"] {
		t.Fatalf("Names() = %v, missing a built-in", names)
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
	if plan.TicksPerCycle != 1 {
		t.Errorf("TicksPerCycle = %d, want 1", plan.TicksPerCycle)
	}

	// The double-speed global ring doubles the engine rate.
	fast, err := New("ring", Config{Topology: "3:3:8", LineBytes: 32, DoubleSpeedGlobal: true})
	if err != nil {
		t.Fatal(err)
	}
	if fast.TicksPerCycle != 2 {
		t.Errorf("double-speed TicksPerCycle = %d, want 2", fast.TicksPerCycle)
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
	if plan.TicksPerCycle != 1 {
		t.Errorf("TicksPerCycle = %d, want 1", plan.TicksPerCycle)
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
// contract: fields a model doesn't understand must not fail its
// resolution, so one Config can be built from a single command-line
// flag set.
func TestFactoriesIgnoreForeignFields(t *testing.T) {
	if _, err := New("ring", Config{Nodes: 24, LineBytes: 32, BufferFlits: 4}); err != nil {
		t.Errorf("ring rejected a mesh-only field: %v", err)
	}
	if _, err := New("mesh", Config{Nodes: 64, LineBytes: 32, DoubleSpeedGlobal: true, SlottedSwitching: true, IRIQueueFlits: 8}); err != nil {
		t.Errorf("mesh rejected ring-only fields: %v", err)
	}
}

// stubPort is a do-nothing PM port for building models in tests.
type stubPort struct{}

func (stubPort) PendingResponse() (*packet.Packet, bool) { return nil, false }
func (stubPort) PopPendingResponse() *packet.Packet      { panic("empty") }
func (stubPort) PendingRequest() (*packet.Packet, bool)  { return nil, false }
func (stubPort) PopPendingRequest() *packet.Packet       { panic("empty") }
func (stubPort) Deliver(*packet.Packet, int64)           {}
func (stubPort) HasPending() bool                        { return false }

// TestBuiltinsAdvertiseCapabilities builds every registered built-in
// and asserts a fresh network passes its own invariant audit. (That
// each implements invariant checking, fault injection, partitioning
// and stall forensics is the Model interface's business: the compiler
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
