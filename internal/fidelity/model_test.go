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

// ringRoundTrip is the per-pair zero-load round trip of one ring
// transaction, term by term as the simulator's pipeline spends it:
// request hops and flits, memory pickup and service, response hops and
// flits. The estimator splits it into RoundTripHops and ringPairFree;
// this is the oracle the split is checked against.
func ringRoundTrip(spec topo.RingSpec, cfg core.SystemConfig, src, dst int, read bool) int {
	reqType, respType := packet.ReadRequest, packet.ReadResponse
	if !read {
		reqType, respType = packet.WriteRequest, packet.WriteResponse
	}
	fReq := packet.RingSizing.PacketFlits(reqType, cfg.Net.LineBytes)
	fResp := packet.RingSizing.PacketFlits(respType, cfg.Net.LineBytes)
	hReq := spec.RingHops(src, dst)
	hResp := spec.RingHops(dst, src)
	return hReq + fReq + hResp + fResp + cfg.MemLatency - 1
}

// meshRoundTrip is the mesh oracle: each worm is delivered 1+h+f
// cycles after it is pending with buffers of two or more flits, h+2f
// with 1-flit buffers, and memory pickup adds one cycle before its
// service time.
func meshRoundTrip(spec topo.MeshSpec, cfg core.SystemConfig, src, dst int, read bool) int {
	reqType, respType := packet.ReadRequest, packet.ReadResponse
	if !read {
		reqType, respType = packet.WriteRequest, packet.WriteResponse
	}
	fReq := packet.MeshSizing.PacketFlits(reqType, cfg.Net.LineBytes)
	fResp := packet.MeshSizing.PacketFlits(respType, cfg.Net.LineBytes)
	h := spec.HopDistance(src, dst)
	deliver := func(f int) int {
		if cfg.Net.BufferFlits == 1 {
			return h + 2*f
		}
		return 1 + h + f
	}
	return deliver(fReq) + 1 + cfg.MemLatency + deliver(fResp)
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

// The estimator's split — a pair term plus a pair-free term per
// transaction kind — must equal the per-pair oracle for every ordered
// pair of every hierarchy of 2..72 PMs with at most 4 levels, branching
// at most 3 and leaf rings of at most 16, and of every mesh
// 2x2..11x11 at each buffer depth the formula distinguishes, at all
// four line sizes.
func TestPairSplitMatchesRoundTrip(t *testing.T) {
	for _, line := range []int{16, 32, 64, 128} {
		cfg := modelConfig(line, 10, 0.7)
		for _, read := range []bool{true, false} {
			k := ringPairFree(cfg, read)
			for p := 2; p <= 72; p++ {
				for _, spec := range topo.EnumerateRingSpecs(p, 4, 3, 16) {
					for src := 0; src < p; src++ {
						for dst := 0; dst < p; dst++ {
							if src == dst {
								continue
							}
							if got, want := spec.RoundTripHops(src, dst)+k, ringRoundTrip(spec, cfg, src, dst, read); got != want {
								t.Fatalf("ring %s %dB read=%v %d->%d: split %d, oracle %d", spec, line, read, src, dst, got, want)
							}
						}
					}
				}
			}
			for _, buf := range []int{0, 1, 2, 4} {
				cfg := cfg
				cfg.Net.BufferFlits = buf
				k := meshPairFree(cfg, read)
				for n := 2; n <= 11; n++ {
					spec := topo.MustMeshSpec(n)
					for src := 0; src < n*n; src++ {
						for dst := 0; dst < n*n; dst++ {
							if src == dst {
								continue
							}
							if got, want := 2*spec.HopDistance(src, dst)+k, meshRoundTrip(spec, cfg, src, dst, read); got != want {
								t.Fatalf("mesh %dx%d %dB buf=%d read=%v %d->%d: split %d, oracle %d", n, n, line, buf, read, src, dst, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// Request and response trade the payload, so a read and a write have
// the same pair-free cycles on both sizings and ReadProb does not move
// the zero-load latency (DESIGN §4.8).
func TestReadWritePairFreeEqual(t *testing.T) {
	for _, line := range []int{16, 32, 64, 128} {
		for _, buf := range []int{0, 1, 2, 4} {
			cfg := modelConfig(line, 10, 0.7)
			cfg.Net.BufferFlits = buf
			if r, w := ringPairFree(cfg, true), ringPairFree(cfg, false); r != w {
				t.Errorf("ring %dB: read %d, write %d pair-free cycles", line, r, w)
			}
			if r, w := meshPairFree(cfg, true), meshPairFree(cfg, false); r != w {
				t.Errorf("mesh %dB buf=%d: read %d, write %d pair-free cycles", line, buf, r, w)
			}
		}
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
		want := est.LatencyCycles
		if res.Observations < 50 {
			t.Fatalf("%v: too few observations (%d)", tc.spec, res.Observations)
		}
		if math.Abs(res.LatencyCycles-want) > 0.05*want+1 {
			t.Fatalf("%v %dB: simulated %0.2f vs model %0.2f", tc.spec, tc.line, res.LatencyCycles, want)
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
		{4, 16, 2},
		{4, 128, 2},
	} {
		est, res := bothTiers(t, core.SystemConfig{
			Network:    "mesh",
			Net:        network.Config{Nodes: tc.k * tc.k, LineBytes: tc.line, BufferFlits: tc.buf},
			Workload:   lowLoad(),
			MemLatency: node.DefaultMemLatency,
			Seed:       3,
		}, core.RunConfig{WarmupCycles: 20000, BatchCycles: 50000, Batches: 4})
		want := est.LatencyCycles
		if res.Observations < 50 {
			t.Fatalf("%dx%d: too few observations (%d)", tc.k, tc.k, res.Observations)
		}
		if math.Abs(res.LatencyCycles-want) > 0.05*want+1 {
			t.Fatalf("%dx%d %dB buf=%d: simulated %0.2f vs model %0.2f",
				tc.k, tc.k, tc.line, tc.buf, res.LatencyCycles, want)
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

// An estimate draws about 2 000 (src, dst) pairs and allocates for the
// resolve, the locality and the result, never per draw or per source:
// ring hops used to cost two digit slices a call (15 838 allocations an
// estimate), and the 11x11 mesh's locality table a sorted slice per
// source (498).
func TestEstimateAllocations(t *testing.T) {
	for _, c := range []struct {
		cfg core.SystemConfig
		max float64
	}{
		{validationConfig("ring", "3:3:8", 32, 0, 0.04), 64},
		{validationConfig("mesh", "11x11", 32, 4, 0.04), 32},
	} {
		if _, err := estimate(c.cfg); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(10, func() { estimate(c.cfg) }); n > c.max {
			t.Errorf("%s %s: %v allocations per estimate, want <= %v", c.cfg.Network, c.cfg.Net.Topology, n, c.max)
		}
	}
}
