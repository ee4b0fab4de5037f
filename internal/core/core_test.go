package core

import (
	"testing"

	"ringmesh/internal/network"
	"ringmesh/internal/trace"
	"ringmesh/internal/workload"
)

func ringCfg(spec string, line int) SystemConfig {
	return SystemConfig{
		Network:  "ring",
		Net:      network.Config{Topology: spec, LineBytes: line},
		Workload: workload.PaperDefaults(),
		Seed:     1,
	}
}

func meshCfg(k, line, buf int) SystemConfig {
	return SystemConfig{
		Network:  "mesh",
		Net:      network.Config{Nodes: k * k, LineBytes: line, BufferFlits: buf},
		Workload: workload.PaperDefaults(),
		Seed:     1,
	}
}

func quickRun(t *testing.T) RunConfig {
	t.Helper()
	return QuickRunConfig()
}

func TestRingSystemEndToEnd(t *testing.T) {
	sys, err := NewSystem(ringCfg("2:4", 32))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(quickRun(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled {
		t.Fatal("stalled")
	}
	if res.Observations == 0 {
		t.Fatal("no transactions completed")
	}
	if res.LatencyCycles <= 0 {
		t.Fatalf("latency = %v", res.LatencyCycles)
	}
	if len(res.RingUtilization) != 2 {
		t.Fatalf("ring util levels = %d", len(res.RingUtilization))
	}
	if res.MeshUtilization != 0 {
		t.Fatal("ring system reported mesh utilization")
	}
	if res.Completed > res.Issued {
		t.Fatal("completed more than issued")
	}
}

func TestMeshSystemEndToEnd(t *testing.T) {
	sys, err := NewSystem(meshCfg(3, 32, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(quickRun(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled || res.Observations == 0 {
		t.Fatalf("bad run: %+v", res)
	}
	if res.MeshUtilization <= 0 || res.MeshUtilization > 1 {
		t.Fatalf("mesh utilization = %v", res.MeshUtilization)
	}
	if res.RingUtilization != nil {
		t.Fatal("mesh system reported ring utilization")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		sys, err := NewSystem(ringCfg("2:3:4", 64))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(quickRun(t))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.LatencyCycles != b.LatencyCycles || a.Issued != b.Issued || a.Completed != b.Completed {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestSeedsChangeResults(t *testing.T) {
	mk := func(seed uint64) Result {
		cfg := ringCfg("2:4", 32)
		cfg.Seed = seed
		sys, _ := NewSystem(cfg)
		res, err := sys.Run(quickRun(t))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if mk(1).LatencyCycles == mk(2).LatencyCycles {
		t.Fatal("different seeds gave identical latency (suspicious)")
	}
}

func TestBadConfigsRejected(t *testing.T) {
	cfg := ringCfg("2:4", 32)
	cfg.Workload.C = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("bad workload accepted")
	}
	cfg = ringCfg("2:4", 0)
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("bad line size accepted")
	}
	mcfg := meshCfg(0, 32, 0)
	if _, err := NewSystem(mcfg); err == nil {
		t.Fatal("bad mesh accepted")
	}
	mcfg = meshCfg(2, 32, 4)
	mcfg.Workload.R = 2
	if _, err := NewSystem(mcfg); err == nil {
		t.Fatal("bad R accepted")
	}
}

func TestRunConfigValidation(t *testing.T) {
	sys, _ := NewSystem(ringCfg("4", 32))
	if _, err := sys.Run(RunConfig{BatchCycles: 0, Batches: 2}); err == nil {
		t.Fatal("zero batch cycles accepted")
	}
	if _, err := sys.Run(RunConfig{BatchCycles: 100, Batches: 0}); err == nil {
		t.Fatal("zero batches accepted")
	}
	// One batch mean has no spread: its CI would be +Inf.
	if _, err := sys.Run(RunConfig{BatchCycles: 100, Batches: 1}); err == nil {
		t.Fatal("one batch accepted")
	}
	// Read as "off", a negative horizon would disarm stall detection.
	if _, err := sys.Run(RunConfig{BatchCycles: 100, Batches: 2, WatchdogCycles: -1}); err == nil {
		t.Fatal("negative watchdog accepted")
	}
}

// Latency must grow with system size under the no-locality workload
// (the paper's core scaling observation).
func TestLatencyGrowsWithRingSize(t *testing.T) {
	lat := func(spec string) float64 {
		sys, err := NewSystem(ringCfg(spec, 32))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(DefaultRunConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res.LatencyCycles
	}
	small, large := lat("4"), lat("3:8")
	if large <= small {
		t.Fatalf("latency did not grow with size: %v vs %v", small, large)
	}
}

// Mesh latency must drop when buffers deepen from 1 flit to cl (the
// paper's Figure 12 ordering).
func TestMeshBufferOrdering(t *testing.T) {
	lat := func(buf int) float64 {
		sys, err := NewSystem(meshCfg(4, 64, buf))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(DefaultRunConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res.LatencyCycles
	}
	l1, l4, lcl := lat(1), lat(4), lat(0)
	if !(l1 > l4 && l4 >= lcl) {
		t.Fatalf("buffer ordering violated: 1-flit=%v 4-flit=%v cl=%v", l1, l4, lcl)
	}
}

// Locality must reduce ring latency (Figure 11's point).
func TestLocalityHelpsRings(t *testing.T) {
	lat := func(r float64) float64 {
		cfg := ringCfg("3:3:4", 32)
		cfg.Workload.R = r
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(DefaultRunConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res.LatencyCycles
	}
	if full, local := lat(1.0), lat(0.1); local >= full {
		t.Fatalf("locality did not help: R=1.0 %v vs R=0.1 %v", full, local)
	}
}

// Double-speed global rings must reduce latency for a
// bisection-limited configuration (Figure 19's point).
func TestDoubleSpeedGlobalHelps(t *testing.T) {
	lat := func(dbl bool) float64 {
		cfg := ringCfg("3:3:4", 64)
		cfg.Net.DoubleSpeedGlobal = dbl
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(DefaultRunConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res.LatencyCycles
	}
	normal, double := lat(false), lat(true)
	if double >= normal {
		t.Fatalf("double-speed global did not help: %v vs %v", normal, double)
	}
}

func TestStepCyclesAndAccessors(t *testing.T) {
	sys, _ := NewSystem(ringCfg("2:4", 32))
	if sys.PMs() != 8 {
		t.Fatalf("PMs = %d", sys.PMs())
	}
	if sys.Describe() == "" {
		t.Fatal("empty description")
	}
	if err := sys.StepCycles(10); err != nil {
		t.Fatal(err)
	}
	if sys.Engine().Now() != 10 {
		t.Fatalf("engine at %d", sys.Engine().Now())
	}
	// A double-speed global ring takes its second step inside the
	// cycle: the engine still ticks once per PM cycle.
	cfg := ringCfg("2:2:2", 32)
	cfg.Net.DoubleSpeedGlobal = true
	sys2, _ := NewSystem(cfg)
	if err := sys2.StepCycles(10); err != nil {
		t.Fatal(err)
	}
	if sys2.Engine().Now() != 10 {
		t.Fatalf("double-speed engine at %d ticks, want 10", sys2.Engine().Now())
	}
}

func TestRingTopologyForPaperTable(t *testing.T) {
	// Spot-check against the paper's Table 2 (exact entries depend on
	// their unstated tie-break; ours must at least produce admissible
	// hierarchies of the same depth and leaf bound).
	cases := []struct {
		pms, line  int
		wantLevels int
	}{
		{4, 16, 1}, {12, 16, 1}, {24, 16, 2}, {36, 16, 2},
		{72, 16, 3}, {108, 16, 3},
		{8, 32, 1}, {24, 32, 2}, {72, 32, 3},
		{6, 64, 1}, {18, 64, 2}, {54, 64, 3},
		{4, 128, 1}, {12, 128, 2}, {36, 128, 3}, {108, 128, 4},
	}
	for _, c := range cases {
		spec, err := network.RingTopologyFor(c.pms, c.line)
		if err != nil {
			t.Fatalf("RingTopologyFor(%d, %d): %v", c.pms, c.line, err)
		}
		if spec.PMs() != c.pms {
			t.Fatalf("topology %v has %d PMs, want %d", spec, spec.PMs(), c.pms)
		}
		if spec.NumLevels() != c.wantLevels {
			t.Fatalf("topology %v for (%d,%dB) has %d levels, want %d",
				spec, c.pms, c.line, spec.NumLevels(), c.wantLevels)
		}
		leaf := spec.Levels[spec.NumLevels()-1]
		if leaf > network.SingleRingCapacity[c.line] {
			t.Fatalf("topology %v leaf %d exceeds single-ring capacity", spec, leaf)
		}
	}
	if _, err := network.RingTopologyFor(24, 48); err == nil {
		t.Fatal("unsupported line size accepted")
	}
	if _, err := network.RingTopologyFor(7, 128); err == nil {
		t.Fatal("7 PMs at 128B has no admissible topology but none reported")
	}
}

// A saturating configuration must be flagged rather than silently
// reported with a misleading latency.
func TestSaturationFlag(t *testing.T) {
	cfg := ringCfg("3:3:8", 16) // small lines, huge hierarchy load
	cfg.Workload.C = 0.5        // absurd miss rate
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(quickRun(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatalf("expected saturation flag: %+v", res)
	}
}

func TestThroughputReported(t *testing.T) {
	sys, _ := NewSystem(meshCfg(3, 32, 4))
	res, err := sys.Run(quickRun(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %v", res.Throughput)
	}
}

func TestTraceCapturesLifecycles(t *testing.T) {
	rec := &trace.Recorder{}
	cfg := ringCfg("2:3", 32)
	cfg.Tracer = rec
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StepCycles(2000); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) == 0 {
		t.Fatal("no events recorded")
	}
	// Every delivered packet's timeline must start with its issue (for
	// requests) or begin after one (responses are new packets), and
	// hops must be monotone in time.
	last := map[uint64]int64{}
	checked := 0
	for _, e := range rec.Events() {
		if e.Tick < last[e.Packet] {
			t.Fatalf("timeline of #%d not monotone at %v", e.Packet, e)
		}
		last[e.Packet] = e.Tick
		if e.Kind == trace.Deliver {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no delivered packets traced")
	}
}

func TestTraceMesh(t *testing.T) {
	rec := &trace.Recorder{}
	cfg := meshCfg(3, 32, 4)
	cfg.Tracer = rec
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StepCycles(2000); err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.Kind]bool{}
	for _, e := range rec.Events() {
		kinds[e.Kind] = true
	}
	for _, want := range []trace.Kind{trace.Issue, trace.Inject, trace.Hop, trace.Deliver} {
		if !kinds[want] {
			t.Fatalf("mesh trace missing %v events", want)
		}
	}
}
