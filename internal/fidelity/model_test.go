package fidelity

import (
	"math"
	"testing"

	"ringmesh/internal/core"
	"ringmesh/internal/network"
	"ringmesh/internal/node"
	"ringmesh/internal/packet"
	"ringmesh/internal/topo"
	"ringmesh/internal/workload"
)

// lowLoad is a workload so light that queueing is negligible: the
// simulator's measured latency must converge to the zero-load model.
func lowLoad() workload.MMRP {
	return workload.MMRP{R: 1.0, C: 0.0005, T: 1, ReadProb: 0.7}
}

// modelConfig is the slice of a configuration the formulas read.
func modelConfig(line, memLatency int, readProb float64) core.SystemConfig {
	return core.SystemConfig{
		Net:        network.Config{LineBytes: line},
		MemLatency: memLatency,
		Workload:   workload.MMRP{ReadProb: readProb},
	}
}

func TestRingRoundTripFormula(t *testing.T) {
	// 2-node ring, 64B lines, read: h=1 each way, req 1 flit, resp 5
	// flits, mem 10 → 1+1+1+5+10-1 = 17 (matches the timing test in
	// internal/ring).
	spec := topo.MustRingSpec(2)
	p := modelConfig(64, 10, 0.7)
	if got := ringRoundTrip(spec, p, 0, 1, true); got != 17 {
		t.Fatalf("ring round trip = %d, want 17", got)
	}
	// Write: req 5 flits, resp 1 flit — same total on a symmetric
	// path.
	if got := ringRoundTrip(spec, p, 0, 1, false); got != 17 {
		t.Fatalf("ring write round trip = %d, want 17", got)
	}
}

func TestMeshRoundTripFormula(t *testing.T) {
	// Neighbours on a 2x2 mesh, 32B lines, read: req 4 flits arrive
	// at 1+1+4=6, memory pickup +1 and service 10, response 12 flits
	// land 1+1+12=14 cycles after they are pending -> 6+11+14 = 31.
	spec := topo.MustMeshSpec(2)
	p := modelConfig(32, 10, 0.7)
	if got := meshRoundTrip(spec, p, 0, 1, true); got != 31 {
		t.Fatalf("mesh round trip = %d, want 31", got)
	}
	// With 1-flit buffers the streaming terms double:
	// (1+2*4) + 11 + (1+2*12) = 45.
	p.Net.BufferFlits = 1
	if got := meshRoundTrip(spec, p, 0, 1, true); got != 45 {
		t.Fatalf("mesh 1-flit round trip = %d, want 45", got)
	}
}

// The flit-level simulator at vanishing load must agree with the
// zero-load model to within a cycle or two (batch-means noise).
func TestRingSimulatorMatchesZeroLoadModel(t *testing.T) {
	for _, tc := range []struct {
		spec topo.RingSpec
		line int
	}{
		{topo.MustRingSpec(6), 32},
		{topo.MustRingSpec(2, 4), 64},
		{topo.MustRingSpec(2, 2, 3), 128},
	} {
		est, res := bothTiers(t, core.SystemConfig{
			Network:    "ring",
			Net:        network.Config{Topology: tc.spec.String(), LineBytes: tc.line},
			Workload:   lowLoad(),
			MemLatency: node.DefaultMemLatency,
			Seed:       3,
		}, core.RunConfig{WarmupCycles: 20000, BatchCycles: 50000, Batches: 4})
		want := est.Latency
		if res.Observations < 50 {
			t.Fatalf("%v: too few observations (%d)", tc.spec, res.Observations)
		}
		if math.Abs(res.Latency-want) > 0.05*want+1 {
			t.Fatalf("%v %dB: simulated %0.2f vs model %0.2f", tc.spec, tc.line, res.Latency, want)
		}
	}
}

func TestMeshSimulatorMatchesZeroLoadModel(t *testing.T) {
	for _, tc := range []struct {
		k, line, buf int
	}{
		{3, 32, 4},
		{4, 64, 0},
		{2, 128, 1},
	} {
		est, res := bothTiers(t, core.SystemConfig{
			Network:    "mesh",
			Net:        network.Config{Nodes: tc.k * tc.k, LineBytes: tc.line, BufferFlits: tc.buf},
			Workload:   lowLoad(),
			MemLatency: node.DefaultMemLatency,
			Seed:       3,
		}, core.RunConfig{WarmupCycles: 20000, BatchCycles: 50000, Batches: 4})
		want := est.Latency
		if res.Observations < 50 {
			t.Fatalf("%dx%d: too few observations (%d)", tc.k, tc.k, res.Observations)
		}
		if math.Abs(res.Latency-want) > 0.05*want+1 {
			t.Fatalf("%dx%d %dB buf=%d: simulated %0.2f vs model %0.2f",
				tc.k, tc.k, tc.line, tc.buf, res.Latency, want)
		}
	}
}

func TestRingBisectionBoundOrdering(t *testing.T) {
	p := modelConfig(32, 10, 0.7)
	// More children on the global ring tighten the per-PM bound.
	three := ringBisectionBound(topo.MustRingSpec(3, 3, 8), p)
	five := ringBisectionBound(topo.MustRingSpec(5, 3, 8), p)
	if five >= three {
		t.Fatalf("bound should tighten with more children: 3->%v 5->%v", three, five)
	}
	// Single rings are not globally bisection bound.
	if ringBisectionBound(topo.MustRingSpec(8), p) != 1 {
		t.Fatal("single ring should return the no-bound sentinel")
	}
}

// The bisection bound must explain the paper's "three local rings"
// knee: at C=0.04 the offered per-PM remote rate (~0.038) is below
// the 2-child bound but above the bound once more second-level rings
// are attached at their saturating sizes.
func TestRingBoundExplainsSaturation(t *testing.T) {
	p := modelConfig(32, 10, 0.7)
	offered := 0.04 * (1 - 1.0/72)
	b3 := ringBisectionBound(topo.MustRingSpec(3, 3, 8), p)
	if b3 > offered {
		t.Fatalf("3x3x8 should be past saturation at C=0.04: bound %v vs offered %v", b3, offered)
	}
	// The mesh bound at 121 nodes must be far looser than the
	// equivalent ring bound (the paper's scaling argument).
	mb := meshBisectionBound(topo.MustMeshSpec(11), p)
	rb := ringBisectionBound(topo.MustRingSpec(5, 3, 8), p)
	if mb <= rb {
		t.Fatalf("mesh bound %v should exceed ring bound %v at ~121 nodes", mb, rb)
	}
}

func TestMeshBisectionBoundShrinksWithSize(t *testing.T) {
	p := modelConfig(64, 10, 0.7)
	small := meshBisectionBound(topo.MustMeshSpec(4), p)
	large := meshBisectionBound(topo.MustMeshSpec(11), p)
	if large >= small {
		t.Fatalf("per-PM mesh bound should shrink with size: %v -> %v", small, large)
	}
	if meshBisectionBound(topo.MustMeshSpec(1), p) != 1 {
		t.Fatal("1x1 mesh should return the no-bound sentinel")
	}
}

func TestAvgTransactionFlits(t *testing.T) {
	p := modelConfig(32, 0, 1.0)
	// All reads on rings: 1 + 3 = 4 flits.
	if got := avgTransactionFlits(packet.RingSizing, p); got != 4 {
		t.Fatalf("read flits = %v", got)
	}
	p.Workload.ReadProb = 0
	// All writes: 3 + 1 = 4 flits.
	if got := avgTransactionFlits(packet.RingSizing, p); got != 4 {
		t.Fatalf("write flits = %v", got)
	}
}

// A ring estimate draws about 2 000 (src, dst) pairs and allocates for
// the resolve, the locality and the result, never per draw: ring hops
// used to cost two digit slices a call, 15 838 allocations an estimate.
func TestEstimateAllocations(t *testing.T) {
	cfg := validationConfig("ring", "3:3:8", 32, 0, 0.04)
	if _, _, err := estimate(cfg); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { estimate(cfg) }); n > 64 {
		t.Errorf("ring 3:3:8: %v allocations per estimate, want <= 64", n)
	}
}
