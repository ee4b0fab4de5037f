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
// T=1, as in most points of Figs 6-21). Fewer stations hold flits than
// at R=1.0/T=4 — 41 % against 51 % of station-cycles — yet a low-load
// PM-cycle costs about as much, though idle NICs no longer ask their
// PMs for packets: its flits rarely block, so more of them move (38
// against 31 flit moves a PM-cycle over 4 000 cycles at seed 3). On a
// shared 2-vCPU Xeon (go1.24, three pairs of 30 000 ticks) it took
// 3.7-4.0 µs against BenchmarkSimRing72's 3.1-4.2 µs; polling every PM
// each cycle, with bounds checks on the station arrays, took 4.3-4.7
// against 3.8-3.9 µs.
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

// benchSimOp times one op of the repository benchmark's ring-sim or
// mesh-sim workload (bench/simload.go): a high-load run (R=1.0, T=4)
// then a low-load run (R=0.2, T=1) of cfg's system, each built fresh
// and run on opt's schedule. Two `go test -c` binaries A/B a tick
// change in seconds: -bench 'SimOp$' -benchtime 20x -count 10.
func benchSimOp(b *testing.B, cfg Config, opt RunOptions) {
	b.Helper()
	loads := []Workload{
		{R: 1.0, C: 0.04, T: 4, ReadProb: 0.7},
		{R: 0.2, C: 0.04, T: 1, ReadProb: 0.7},
	}
	for i := 0; i < b.N; i++ {
		for k, wl := range loads {
			cfg.Workload, cfg.Seed = wl, uint64(2*i+k+1)
			if _, err := Run(cfg, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRingSimOp is one ring-sim op: 3:3:8 at 32-byte lines, 1000
// warmup cycles plus three 1000-cycle batches per run.
func BenchmarkRingSimOp(b *testing.B) {
	benchSimOp(b, Config{Network: "ring", Topology: "3:3:8", LineBytes: 32},
		RunOptions{WarmupCycles: 1000, BatchCycles: 1000, Batches: 3})
}

// BenchmarkMeshSimOp is one mesh-sim op: the 11x11 mesh with 4-flit
// buffers, 500 warmup cycles plus three 500-cycle batches per run.
func BenchmarkMeshSimOp(b *testing.B) {
	benchSimOp(b, Config{Network: "mesh", Topology: "11x11", LineBytes: 32, BufferFlits: 4},
		RunOptions{WarmupCycles: 500, BatchCycles: 500, Batches: 3})
}

// BenchmarkPaperFigsRound is one round of the repository benchmark's
// paper-figs workload (bench/figload.go): fig11, fig16 and fig19 at a
// 250-cycle warmup plus three 250-cycle batches per point, two point
// workers, the serial engine and seed 42. Two `go test -c` binaries
// A/B a change to the figure path in seconds: -bench 'PaperFigsRound$'
// -benchtime 1x -count 10.
func BenchmarkPaperFigsRound(b *testing.B) {
	spec := exp.DefaultSpec()
	spec.Seed = 42
	spec.Run.WarmupCycles, spec.Run.BatchCycles, spec.Run.Batches = 250, 250, 3
	spec.Workers, spec.EngineWorkers = 2, 1
	var exps []exp.Experiment
	for _, id := range []string{"fig11", "fig16", "fig19"} {
		e, ok := exp.ByID(id)
		if !ok {
			b.Fatalf("experiment %s not registered", id)
		}
		exps = append(exps, e)
	}
	for i := 0; i < b.N; i++ {
		for _, e := range exps {
			if _, err := e.Run(spec); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- engine micro-benchmarks -------------------------------------------

// benchComp is a minimal component whose work per phase is a single
// counter bump, so the benchmark isolates the engine's dispatch cost.
type benchComp struct{ n int }

func (c *benchComp) Compute(now int64) { c.n++ }
func (c *benchComp) Commit(now int64)  { c.n++ }

// BenchmarkEngineStepUniform measures the per-tick dispatch cost on
// the uniform fast path (every component at period 1, as in every
// system).
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
// 8x8 golden mesh at a fixed worker count. Workers=1 is the serial
// path; the others compute one shard per mesh row on the gang and
// commit serially on worker 0, so comparing the Parallel1/2/4/8
// numbers gives the engine's parallel speedup — meaningful only on a
// machine with that many cores; on fewer cores the extra workers just
// measure barrier overhead.
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
// (half the components at period 2), which only the benchmark's
// sim.step_ns_mixed64 probe still takes.
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

// BenchmarkAnalyticTriage is the analytic-triage workload in seconds:
// one op answers each of the 464 triage candidates (triage_test.go)
// once at R=1.0, T=4, and ns/estimate is the mean cost of one answer.
func BenchmarkAnalyticTriage(b *testing.B) {
	b.ReportAllocs()
	cands := triageCandidates()
	for i := range cands {
		cands[i].Workload = Workload{R: 1.0, C: 0.04, T: 4, ReadProb: 0.7}
	}
	opt := DefaultRunOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cands {
			if _, err := Estimate(cfg, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cands)), "ns/estimate")
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
