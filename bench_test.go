package ringmesh

// The benchmark harness regenerates every table and figure of the
// paper. Each BenchmarkFigNN / BenchmarkTableN runs the corresponding
// experiment sweep end to end (at a reduced but shape-preserving
// schedule so `go test -bench=.` stays tractable) and reports the
// headline numbers via b.Log and custom metrics. For publication-
// length runs use `go run ./cmd/experiments -all`.
//
// Micro-benchmarks at the bottom measure raw simulator throughput
// (simulated cycles per second) for both network models.

import (
	"flag"
	"testing"

	"ringmesh/internal/core"
	"ringmesh/internal/exp"
	"ringmesh/internal/sim"
)

// benchSpec is the reduced schedule used by the figure benchmarks:
// the same sweeps as the paper, shorter batches.
func benchSpec() exp.Spec {
	return exp.Spec{
		Seed:    42,
		Run:     core.RunConfig{WarmupCycles: 400, BatchCycles: 400, Batches: 3},
		Workers: 4,
	}
}

// runExperiment executes one registered experiment b.N times and
// reports the number of simulation points measured per run.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var points int
	for i := 0; i < b.N; i++ {
		out, err := e.Run(benchSpec())
		if err != nil {
			b.Fatal(err)
		}
		points = 0
		for _, s := range out.Series {
			points += len(s.Points)
		}
		if points == 0 && len(out.Tables) == 0 {
			b.Fatalf("%s produced no data", id)
		}
	}
	b.ReportMetric(float64(points), "points/op")
}

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkFig06(b *testing.B)  { runExperiment(b, "fig6") }
func BenchmarkFig07(b *testing.B)  { runExperiment(b, "fig7") }
func BenchmarkFig08(b *testing.B)  { runExperiment(b, "fig8") }
func BenchmarkFig09(b *testing.B)  { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { runExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { runExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { runExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { runExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { runExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { runExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { runExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { runExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)  { runExperiment(b, "fig21") }

func BenchmarkAblateMemLat(b *testing.B)    { runExperiment(b, "ablate-memlat") }
func BenchmarkAblateDetGap(b *testing.B)    { runExperiment(b, "ablate-detgap") }
func BenchmarkAblateIRIQ(b *testing.B)      { runExperiment(b, "ablate-iriq") }
func BenchmarkAblateSwitching(b *testing.B) { runExperiment(b, "ablate-switching") }

// --- simulator micro-benchmarks ----------------------------------------

// benchWorkers is Config.Workers for every BenchmarkSim* system, so one
// benchmark measures a model serial and at a worker count (DESIGN §8's
// table): go test -run '^$' -bench 'SimRing72$' -bench-workers 2 .
var benchWorkers = flag.Int("bench-workers", 0, "Config.Workers for the BenchmarkSim* systems")

// benchCycles measures raw simulated-cycle throughput of a system: one
// op is one PM clock cycle of the whole system, so ns/op divided by
// PMcycles/op (the PM count) is the cost of one PM-cycle.
func benchCycles(b *testing.B, cfg Config) {
	b.Helper()
	cfg.Workers = *benchWorkers
	benchSystem(b, cfg)
}

// benchSystem warms cfg's system into steady state and times b.N PM
// cycles of it. A mesh asked for workers must engage the gang.
func benchSystem(b *testing.B, cfg Config) {
	b.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if cfg.Workers > 1 && cfg.Network == "mesh" && !sys.Parallel() {
		b.Fatalf("Workers=%d did not engage the parallel engine", cfg.Workers)
	}
	if err := sys.StepCycles(1000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := sys.StepCycles(int64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(sys.PMs()), "PMcycles/op")
}

func BenchmarkSimRing24(b *testing.B) {
	benchCycles(b, Config{Network: "ring", Topology: "3:8", LineBytes: 32,
		Workload: PaperWorkload(), Seed: 1})
}

func BenchmarkSimRing72(b *testing.B) {
	benchCycles(b, Config{Network: "ring", Topology: "3:3:8", LineBytes: 32,
		Workload: PaperWorkload(), Seed: 1})
}

// BenchmarkSimRing72LowLoad is the paper's low-load regime (R=0.2,
// T=1: most stations idle on most cycles, as in most points of Figs
// 6-21), where the tick's cost is the station visit, not the flits.
func BenchmarkSimRing72LowLoad(b *testing.B) {
	benchCycles(b, Config{Network: "ring", Topology: "3:3:8", LineBytes: 32,
		Workload: Workload{R: 0.2, C: 0.04, T: 1, ReadProb: 0.7}, Seed: 1})
}

// BenchmarkSimRing72Metrics is BenchmarkSimRing72 with the instrument
// registry and sampler attached — the enabled-path overhead of the
// metrics subsystem (compare with BenchmarkSimRing72).
func BenchmarkSimRing72Metrics(b *testing.B) {
	benchCycles(b, Config{Network: "ring", Topology: "3:3:8", LineBytes: 32,
		Workload: PaperWorkload(), Seed: 1,
		Metrics: true, MetricsIntervalCycles: 100})
}

func BenchmarkSimRing72Slotted(b *testing.B) {
	benchCycles(b, Config{Network: "ring", Topology: "3:3:8", LineBytes: 32,
		SlottedSwitching: true, Workload: PaperWorkload(), Seed: 1})
}

func BenchmarkSimRing72DoubleSpeed(b *testing.B) {
	benchCycles(b, Config{Network: "ring", Topology: "3:3:8", LineBytes: 32,
		DoubleSpeedGlobal: true, Workload: PaperWorkload(), Seed: 1})
}

func BenchmarkSimMesh16(b *testing.B) {
	benchCycles(b, Config{Network: "mesh", Nodes: 16, LineBytes: 32, BufferFlits: 4,
		Workload: PaperWorkload(), Seed: 1})
}

func BenchmarkSimMesh121(b *testing.B) {
	benchCycles(b, Config{Network: "mesh", Nodes: 121, LineBytes: 32, BufferFlits: 4,
		Workload: PaperWorkload(), Seed: 1})
}

func BenchmarkSimMesh121OneFlit(b *testing.B) {
	benchCycles(b, Config{Network: "mesh", Nodes: 121, LineBytes: 128, BufferFlits: 1,
		Workload: PaperWorkload(), Seed: 1})
}

// --- engine micro-benchmarks -------------------------------------------

// benchComp is a minimal component whose work per phase is a single
// counter bump, so the benchmark isolates the engine's dispatch cost.
type benchComp struct{ n int }

func (c *benchComp) Compute(now int64) { c.n++ }
func (c *benchComp) Commit(now int64)  { c.n++ }

// BenchmarkEngineStepUniform measures the per-tick dispatch cost on
// the uniform fast path (every component at period 1 — the common,
// non-double-speed configuration).
func BenchmarkEngineStepUniform(b *testing.B) {
	var e sim.Engine
	for i := 0; i < 64; i++ {
		e.Register(&benchComp{}, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// benchParallelMesh measures full-system tick throughput of the
// 8x8 golden mesh at a fixed worker count. Workers=1 is the exact
// serial path; the others run the sharded engine (one shard per mesh
// row), so comparing the Parallel1/2/4/8 numbers gives the engine's
// parallel speedup — meaningful only on a machine with that many
// cores; on fewer cores the extra workers just measure barrier
// overhead.
func benchParallelMesh(b *testing.B, workers int) {
	b.Helper()
	benchSystem(b, Config{Network: "mesh", Topology: "8x8", LineBytes: 32,
		BufferFlits: 4, Workload: PaperWorkload(), Seed: 1, Workers: workers})
}

// Flat names (no sub-benchmarks): `make profile` and the bench-smoke
// regex match whole benchmark names.
func BenchmarkEngineStepParallel1(b *testing.B) { benchParallelMesh(b, 1) }
func BenchmarkEngineStepParallel2(b *testing.B) { benchParallelMesh(b, 2) }
func BenchmarkEngineStepParallel4(b *testing.B) { benchParallelMesh(b, 4) }
func BenchmarkEngineStepParallel8(b *testing.B) { benchParallelMesh(b, 8) }

// BenchmarkEngineStepMixed measures the grouped multi-rate path
// (half the components at period 2, as in a double-speed-global run).
func BenchmarkEngineStepMixed(b *testing.B) {
	var e sim.Engine
	for i := 0; i < 64; i++ {
		period := int64(1)
		if i%2 == 1 {
			period = 2
		}
		e.Register(&benchComp{}, period)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkAnalyticEstimate measures the closed-form fast path behind
// multi-fidelity serving: one full estimate — zero-load latency,
// saturation verdict, error bound — for the paper's 72-PM Table 2
// hierarchy. The analytic tier's whole value is being orders of
// magnitude faster than a simulation; the ledger's analytic-triage
// workload and fidelity.estimate_* probes are what gate it.
func BenchmarkAnalyticEstimate(b *testing.B) {
	benchEstimate(b, Config{Network: "ring", Topology: "3:3:8", LineBytes: 32,
		Workload: PaperWorkload(), Seed: 1, Fidelity: "analytic"})
}

// BenchmarkAnalyticEstimateMesh121 is the mesh side of the tier: the
// 11x11 locality table is built inside every estimate.
func BenchmarkAnalyticEstimateMesh121(b *testing.B) {
	benchEstimate(b, Config{Network: "mesh", Nodes: 121, LineBytes: 32, BufferFlits: 4,
		Workload: PaperWorkload(), Seed: 1, Fidelity: "analytic"})
}

func benchEstimate(b *testing.B, cfg Config) {
	b.Helper()
	b.ReportAllocs()
	opt := DefaultRunOptions()
	for i := 0; i < b.N; i++ {
		if _, err := Estimate(cfg, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingTopologyFor is the Table 2 hierarchy pick under every
// nodes:N ring resolve (and so under CacheKey); one op is the six
// sizes of the ledger's topo.ring_for_nodes_us probe at 32-byte lines.
func BenchmarkRingTopologyFor(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{16, 24, 48, 72, 96, 108} {
			if _, err := OptimalRingTopology(n, 32); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkNewSystemMesh121 is the build of the paper's largest mesh:
// routers, PMs and the P x region locality table (the ledger's
// core.build_ms_mesh121).
func BenchmarkNewSystemMesh121(b *testing.B) {
	b.ReportAllocs()
	cfg := Config{Network: "mesh", Nodes: 121, LineBytes: 32, BufferFlits: 4,
		Workload: PaperWorkload(), Seed: 1}
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sys.Close()
	}
}
