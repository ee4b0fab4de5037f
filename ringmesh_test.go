package ringmesh

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestPaperWorkloadDefaults(t *testing.T) {
	w := PaperWorkload()
	if w.R != 1.0 || w.C != 0.04 || w.T != 4 || w.ReadProb != 0.7 {
		t.Fatalf("paper workload = %+v", w)
	}
}

func TestRunRingByTopology(t *testing.T) {
	res, err := Run(Config{
		Network:   "ring",
		Topology:  "2:4",
		LineBytes: 32,
		Workload:  PaperWorkload(),
		Seed:      1,
	}, QuickRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyCycles <= 0 || res.Observations == 0 {
		t.Fatalf("bad result %+v", res)
	}
	if len(res.RingUtilization) != 2 {
		t.Fatalf("ring levels = %d", len(res.RingUtilization))
	}
}

func TestRunRingByNodes(t *testing.T) {
	sys, err := NewSystem(Config{
		Network:   "ring",
		Nodes:     24,
		LineBytes: 32,
		Workload:  PaperWorkload(),
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.PMs() != 24 {
		t.Fatalf("PMs = %d", sys.PMs())
	}
	if sys.Describe() == "" {
		t.Fatal("empty description")
	}
}

func TestRunRingNeedsTopologyOrNodes(t *testing.T) {
	_, err := NewSystem(Config{Network: "ring", LineBytes: 32, Workload: PaperWorkload()})
	if err == nil {
		t.Fatal("config without topology or nodes accepted")
	}
}

func TestRunMesh(t *testing.T) {
	res, err := Run(Config{
		Network:     "mesh",
		Nodes:       16,
		LineBytes:   64,
		BufferFlits: 4,
		Workload:    PaperWorkload(),
		Seed:        1,
	}, QuickRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyCycles <= 0 || res.MeshUtilization <= 0 {
		t.Fatalf("bad result %+v", res)
	}
}

func TestRunMeshRejectsNonSquare(t *testing.T) {
	_, err := NewSystem(Config{Network: "mesh", Nodes: 15, LineBytes: 32, Workload: PaperWorkload()})
	if err == nil {
		t.Fatal("non-square mesh accepted")
	}
}

func TestStepCycles(t *testing.T) {
	sys, err := NewSystem(Config{Network: "ring", Topology: "4", LineBytes: 32,
		Workload: PaperWorkload(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StepCycles(100); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalRingTopology(t *testing.T) {
	s, err := OptimalRingTopology(72, 32)
	if err != nil {
		t.Fatal(err)
	}
	if s != "3:3:8" {
		t.Fatalf("topology for 72@32B = %s, want 3:3:8 (paper Table 2)", s)
	}
	if _, err := OptimalRingTopology(7, 128); err == nil {
		t.Fatal("impossible size accepted")
	}
}

func TestEnumerateRingTopologies(t *testing.T) {
	all := EnumerateRingTopologies(24, 3, 3, 12)
	if len(all) == 0 {
		t.Fatal("no topologies for 24")
	}
	seen := map[string]bool{}
	for _, s := range all {
		seen[s] = true
	}
	if !seen["2:12"] {
		t.Fatalf("2:12 missing: %v", all)
	}
}

func TestSingleRingCapacity(t *testing.T) {
	want := map[int]int{16: 12, 32: 8, 64: 6, 128: 4}
	for line, cap := range want {
		if got := SingleRingCapacity(line); got != cap {
			t.Fatalf("capacity(%d) = %d, want %d", line, got, cap)
		}
	}
	if SingleRingCapacity(48) != 0 {
		t.Fatal("unsupported line size should return 0")
	}
}

// runSizes is the size sweep as the README spells it: one Run per node
// count, the geometry re-derived from Nodes alone.
func runSizes(base Config, sizes []int) ([]SweepPoint, error) {
	var pts []SweepPoint
	for _, n := range sizes {
		cfg := base
		cfg.Topology, cfg.Nodes = "", n
		topology, _, err := CanonicalTopology(cfg)
		if err != nil {
			return pts, err
		}
		res, err := Run(cfg, QuickRunOptions())
		if err != nil {
			return pts, err
		}
		pts = append(pts, SweepPoint{Nodes: n, Topology: topology, Result: res, Attempts: 1})
	}
	return pts, nil
}

func TestSweepRingSizes(t *testing.T) {
	pts, err := runSizes(Config{
		Network:   "ring",
		LineBytes: 32,
		Workload:  PaperWorkload(),
		Seed:      1,
	}, []int{8, 16, 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Topology == "" || p.Result.LatencyCycles <= 0 {
			t.Fatalf("bad point %+v", p)
		}
	}
}

func TestSweepMeshSizes(t *testing.T) {
	pts, err := runSizes(Config{
		Network:     "mesh",
		LineBytes:   32,
		BufferFlits: 4,
		Workload:    PaperWorkload(),
		Seed:        1,
	}, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Result.LatencyCycles <= 0 || pts[1].Result.LatencyCycles <= pts[0].Result.LatencyCycles {
		t.Fatalf("points = %+v", pts)
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	_, err := runSizes(Config{
		Network:   "mesh",
		LineBytes: 32,
		Workload:  PaperWorkload(),
	}, []int{5})
	if err == nil {
		t.Fatal("non-square sweep size accepted")
	}
}

func TestDeterministicAcrossAPIs(t *testing.T) {
	cfg := Config{Network: "ring", Topology: "2:3:4", LineBytes: 64, Workload: PaperWorkload(), Seed: 9}
	a, err := Run(cfg, QuickRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, QuickRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.LatencyCycles != b.LatencyCycles || a.Issued != b.Issued {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	res, err := Run(Config{
		Network:   "ring",
		Topology:  "2:4",
		LineBytes: 32,
		Workload:  PaperWorkload(),
		Seed:      1,
		Histogram: true,
	}, QuickRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyP50 <= 0 || res.LatencyP95 < res.LatencyP50 || res.LatencyMax < res.LatencyP95 {
		t.Fatalf("percentile ordering wrong: %+v", res)
	}
	// The mean must sit within the distribution's range.
	if res.LatencyCycles > res.LatencyMax {
		t.Fatalf("mean %v above max %v", res.LatencyCycles, res.LatencyMax)
	}
}

func TestOpenLoopWorkload(t *testing.T) {
	wl := PaperWorkload()
	wl.OpenLoop = true
	closed, err := Run(Config{Network: "ring", Topology: "3:8", LineBytes: 32,
		Workload: PaperWorkload(), Seed: 1}, QuickRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	open, err := Run(Config{Network: "ring", Topology: "3:8", LineBytes: 32,
		Workload: wl, Seed: 1}, QuickRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Open-loop generation can only add processor-side queueing to the
	// measured round trip (misses wait for a window slot but their
	// latency clock starts at generation).
	if open.LatencyCycles < closed.LatencyCycles {
		t.Fatalf("open-loop latency %v below closed-loop %v",
			open.LatencyCycles, closed.LatencyCycles)
	}
	if open.Observations == 0 {
		t.Fatal("open-loop run produced no observations")
	}
}

func TestSlottedSwitchingAPI(t *testing.T) {
	res, err := Run(Config{
		Network:          "ring",
		Topology:         "2:3:4",
		LineBytes:        32,
		SlottedSwitching: true,
		Workload:         PaperWorkload(),
		Seed:             1,
	}, QuickRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled || res.Observations == 0 {
		t.Fatalf("slotted run failed: %+v", res)
	}
	if len(res.RingUtilization) != 3 {
		t.Fatalf("slotted ring levels = %d", len(res.RingUtilization))
	}
}

func TestTraceAPI(t *testing.T) {
	sys, err := NewSystem(Config{
		Network:  "ring",
		Topology: "2:3", LineBytes: 32,
		Workload: PaperWorkload(), Seed: 1, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StepCycles(1500); err != nil {
		t.Fatal(err)
	}
	evts := sys.TraceEvents()
	if len(evts) == 0 {
		t.Fatal("no trace events")
	}
	// Find a delivered packet and check its timeline shape.
	var delivered uint64
	for _, e := range evts {
		if e.Kind == "deliver" {
			delivered = e.Packet
			break
		}
	}
	if delivered == 0 {
		t.Fatal("no delivery traced")
	}
	tl := sys.PacketTimeline(delivered)
	if len(tl) < 2 || tl[len(tl)-1].Kind != "deliver" {
		t.Fatalf("odd timeline: %+v", tl)
	}
	// Untraced systems return nil.
	sys2, _ := NewSystem(Config{Network: "ring", Topology: "4", LineBytes: 32,
		Workload: PaperWorkload(), Seed: 1})
	if sys2.TraceEvents() != nil {
		t.Fatal("untraced system returned events")
	}
}

func TestTopologyNodesConsistency(t *testing.T) {
	_, err := NewSystem(Config{
		Network:  "ring",
		Topology: "3:3:8", Nodes: 24, LineBytes: 32,
		Workload: PaperWorkload(),
	})
	if err == nil {
		t.Fatal("contradictory Topology/Nodes accepted")
	}
	// Matching values are fine.
	if _, err := NewSystem(Config{
		Network:  "ring",
		Topology: "3:8", Nodes: 24, LineBytes: 32,
		Workload: PaperWorkload(),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTopologiesListsBuiltins(t *testing.T) {
	names := Topologies()
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	if !found["ring"] || !found["mesh"] {
		t.Fatalf("Topologies() = %v, want ring and mesh", names)
	}
}

func TestGenericNewSystemResolvesTopology(t *testing.T) {
	ringSys, err := NewSystem(Config{Network: "ring", Nodes: 72, LineBytes: 32,
		Workload: PaperWorkload(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := ringSys.Topology(); got != "3:3:8" {
		t.Errorf("ring Topology() = %q, want 3:3:8", got)
	}
	meshSys, err := NewSystem(Config{Network: "mesh", Nodes: 64, LineBytes: 32,
		BufferFlits: 4, Workload: PaperWorkload(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := meshSys.Topology(); got != "8x8" {
		t.Errorf("mesh Topology() = %q, want 8x8", got)
	}
}

func TestGenericRunUnknownNetwork(t *testing.T) {
	_, err := Run(Config{Network: "torus", Nodes: 64, LineBytes: 32,
		Workload: PaperWorkload()}, QuickRunOptions())
	if err == nil {
		t.Fatal("expected an error for an unregistered network")
	}
	if !strings.Contains(err.Error(), "torus") {
		t.Errorf("error %q does not name the unknown topology", err)
	}
}

func TestGenericSweepRecordsMeshTopology(t *testing.T) {
	for nodes, want := range map[int]string{4: "2x2", 9: "3x3"} {
		got, pms, err := CanonicalTopology(Config{Network: "mesh", Nodes: nodes, LineBytes: 32,
			BufferFlits: 4, Workload: PaperWorkload()})
		if err != nil {
			t.Fatal(err)
		}
		if got != want || pms != nodes {
			t.Errorf("size %d resolves to %q with %d PMs, want %q", nodes, got, pms, want)
		}
	}
}

// TestMetricsDisabledAccessors checks the facade's behaviour without
// Config.Metrics: empty series, and exporters that error rather than
// writing empty files.
func TestMetricsDisabledAccessors(t *testing.T) {
	sys, err := NewSystem(Config{
		Network: "ring", Topology: "4", LineBytes: 32,
		Workload: PaperWorkload(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if names := sys.MetricNames(); names != nil {
		t.Fatalf("MetricNames without metrics = %v", names)
	}
	if samples := sys.MetricSamples(); samples != nil {
		t.Fatalf("MetricSamples without metrics = %v", samples)
	}
	var buf bytes.Buffer
	if err := sys.WriteMetricsCSV(&buf); err == nil {
		t.Fatal("WriteMetricsCSV should error when metrics are disabled")
	}
	if err := sys.WriteMetricsJSONL(&buf); err == nil {
		t.Fatal("WriteMetricsJSONL should error when metrics are disabled")
	}
	if err := sys.WriteMetricsSnapshot(&buf); err == nil {
		t.Fatal("WriteMetricsSnapshot should error when metrics are disabled")
	}
}

// TestMetricsExportAndUserHookCompose runs a metrics-enabled system
// with a user OnCycle hook attached and checks both observe the run:
// the sampler and the hook share the engine's single hook slot via
// composition, not replacement.
func TestMetricsExportAndUserHookCompose(t *testing.T) {
	sys, err := NewSystem(Config{
		Network: "ring", Topology: "2:3:4", LineBytes: 32,
		Workload: PaperWorkload(), Seed: 9,
		Metrics: true, MetricsIntervalCycles: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	hookCalls := 0
	sys.OnCycle(func(tick int64, moved uint64) { hookCalls++ })
	if err := sys.StepCycles(200); err != nil {
		t.Fatal(err)
	}
	if hookCalls != 200 {
		t.Fatalf("user hook fired %d times, want 200", hookCalls)
	}
	if n := len(sys.MetricSamples()); n != 4 {
		t.Fatalf("sampler rows = %d, want 4", n)
	}
	var csv, jsonl, snap bytes.Buffer
	if err := sys.WriteMetricsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteMetricsJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteMetricsSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "tick,") {
		t.Fatalf("csv header missing:\n%s", csv.String())
	}
	if lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n"); len(lines) != 4 {
		t.Fatalf("jsonl rows = %d, want 4", len(lines))
	}
	if !strings.Contains(snap.String(), "# TYPE ring_link_util gauge") {
		t.Fatalf("snapshot missing TYPE line:\n%s", snap.String())
	}
}

// TestStepCyclesAllocationBound pins whole-system ticks with tracing
// off: what a steady-state tick allocates is the packets it issues
// (about 1 per tick on the 72-PM ring and 2 on the 121-PM mesh at the
// paper's workload) — no trace label, no queue growth. The parent of
// this pin formatted a label per hop, inject, issue and deliver with
// the tracer nil: 18 objects a tick on the ring and 27 on the mesh.
func TestStepCyclesAllocationBound(t *testing.T) {
	for _, cfg := range []Config{
		{Network: "ring", Topology: "3:3:8", LineBytes: 32},
		{Network: "mesh", Topology: "11x11", LineBytes: 32, BufferFlits: 4},
	} {
		cfg.Workload, cfg.Seed = PaperWorkload(), 1
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const ticks = 500
		step := func() {
			if err := sys.StepCycles(ticks); err != nil {
				t.Fatal(err)
			}
		}
		step() // reach steady state: queues and FIFOs at their working size
		if perTick := testing.AllocsPerRun(3, step) / ticks; perTick > 3 {
			t.Errorf("%s %s: %.1f objects allocated per tick with tracing off; want <= 3",
				cfg.Network, cfg.Topology, perTick)
		}
	}
}

// hostileGeometries are configurations whose PM count is absurd, wraps
// int, or whose mesh locality table would be P² ints: each must be
// refused at resolve, before anything is sized by it.
func hostileGeometries() []Config {
	return []Config{
		{Network: "ring", Topology: "1000:1000:8"},
		{Network: "ring", Topology: "3037000500:3037000500"},
		{Network: "ring", Topology: "65536:65536:65536:65536"},
		{Network: "ring", Nodes: 1 << 40},
		{Network: "mesh", Topology: "300x300"},
		{Network: "mesh", Nodes: 90000},
		{Network: "mesh", Nodes: 1 << 62},
	}
}

func TestHostileGeometriesRefused(t *testing.T) {
	for _, cfg := range hostileGeometries() {
		cfg.LineBytes, cfg.Workload = 32, PaperWorkload()
		start := time.Now()
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("NewSystem(%s %q nodes=%d) accepted", cfg.Network, cfg.Topology, cfg.Nodes)
		}
		if key, err := CacheKey(cfg, DefaultRunOptions()); err == nil {
			t.Errorf("CacheKey(%s %q nodes=%d) = %s", cfg.Network, cfg.Topology, cfg.Nodes, key)
		}
		cfg.Fidelity = "analytic"
		if res, err := Estimate(cfg, DefaultRunOptions()); err == nil {
			t.Errorf("Estimate(%s %q nodes=%d) = %+v", cfg.Network, cfg.Topology, cfg.Nodes, res)
		}
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("%s %q nodes=%d: refusal took %v", cfg.Network, cfg.Topology, cfg.Nodes, took)
		}
	}
}

// The largest admitted geometries stay cheap enough to answer inline.
func TestLargestGeometriesResolve(t *testing.T) {
	for _, cfg := range []Config{
		{Network: "mesh", Topology: "32x32"},
		{Network: "ring", Topology: "4:4:4:16"},
	} {
		cfg.LineBytes, cfg.Workload, cfg.Fidelity = 32, PaperWorkload(), "analytic"
		start := time.Now()
		res, err := Estimate(cfg, DefaultRunOptions())
		if err != nil || !(res.LatencyCycles > 0) {
			t.Fatalf("Estimate(%s): %+v, %v", cfg.Topology, res, err)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("Estimate(%s) took %v", cfg.Topology, took)
		}
	}
}
