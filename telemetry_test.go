package ringmesh

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestGoldenResultsWithFullTelemetry re-runs every golden case with
// the complete telemetry stack attached — metrics registry, latency
// histogram, parallel engine with phase-timing — and demands the same
// Results bit for bit once the new distribution fields are scrubbed.
// Percentiles, phase stats and the exported histograms are
// observation-only, so enabling them must never perturb the
// simulation. The mesh case runs sharded by rows while its sampler
// reads the per-router turn counts, so under -race this also checks
// that those reads are ordered after every shard's commit.
func TestGoldenResultsWithFullTelemetry(t *testing.T) {
	meshes := 0
	for _, tc := range goldenCases() {
		if tc.cfg.Network == "mesh" {
			meshes++
		}
	}
	if meshes == 0 {
		t.Fatal("no mesh among the golden cases: the sharded metrics read goes unchecked")
	}
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg
			cfg.Metrics = true
			cfg.MetricsIntervalCycles = 50
			cfg.Histogram = true
			cfg.Workers = 4
			cfg.PhaseStats = true
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Network == "mesh" && !sys.Parallel() {
				t.Fatal("the mesh did not shard at Workers=4")
			}
			got, err := sys.Run(tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			// The distribution fields are new information, not a
			// perturbation: they must be populated, then scrub them and
			// demand everything else bit-identical to the pinned result.
			if got.LatencyP50 <= 0 || got.LatencyP95 < got.LatencyP50 ||
				got.LatencyP99 < got.LatencyP95 || got.LatencyMax < got.LatencyP99 {
				t.Errorf("percentiles not populated or not monotone: p50=%g p95=%g p99=%g max=%g",
					got.LatencyP50, got.LatencyP95, got.LatencyP99, got.LatencyMax)
			}
			got.LatencyP50, got.LatencyP95, got.LatencyP99, got.LatencyMax = 0, 0, 0, 0
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("telemetry changed the simulation\n got: %#v\nwant: %#v", got, tc.want)
			}
		})
	}
}

// TestLatencyHistogramExported checks the metrics registry carries the
// latency distribution as a Prometheus histogram series alongside the
// result percentiles.
func TestLatencyHistogramExported(t *testing.T) {
	sys, err := NewSystem(Config{
		Network: "mesh", Nodes: 16, LineBytes: 32, BufferFlits: 4,
		Workload: PaperWorkload(), Seed: goldenSeed,
		Metrics: true, Histogram: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(QuickRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := sys.WriteMetricsSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE latency_cycles histogram",
		`latency_cycles_bucket{le="+Inf"} `,
		"latency_cycles_sum",
		"latency_cycles_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot missing %q", want)
		}
	}
	if res.LatencyP99 < res.LatencyP95 || res.LatencyP99 <= 0 {
		t.Errorf("p99 %g inconsistent with p95 %g", res.LatencyP99, res.LatencyP95)
	}
}

// TestPhaseStatsConsistentWithWallTime runs the parallel engine at
// Workers=4 with phase timing enabled and checks the accounting is
// physically consistent: every shard accumulated compute time, the
// serial commit accumulated commit time, the tick count matches the
// schedule, and no worker's measured busy time exceeds the run's
// wall-clock time (its measured intervals are disjoint on one
// goroutine; worker 0 also runs the commit).
func TestPhaseStatsConsistentWithWallTime(t *testing.T) {
	const workers = 4
	sys, err := NewSystem(Config{
		Network: "mesh", Nodes: 64, LineBytes: 32, BufferFlits: 4,
		Workload: PaperWorkload(), Seed: goldenSeed,
		Workers: workers, PhaseStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Parallel() {
		t.Fatal("mesh-8x8 did not partition at Workers=4")
	}
	start := time.Now()
	if _, err := sys.Run(QuickRunOptions()); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)

	ps := sys.PhaseStats()
	if ps == nil {
		t.Fatal("PhaseStats nil after a parallel run with PhaseStats set")
	}
	// QuickRunOptions: 1000 warmup + 4x1000 batch cycles, 1 tick/cycle.
	if ps.Ticks != 5000 {
		t.Errorf("ps.Ticks = %d, want 5000", ps.Ticks)
	}
	if len(ps.Barrier) != workers {
		t.Fatalf("got %d worker barrier digests, want %d", len(ps.Barrier), workers)
	}
	for i := range ps.Shards {
		s := &ps.Shards[i]
		if s.Name == "" {
			t.Errorf("shard %d unnamed", i)
		}
		if s.ComputeNS <= 0 {
			t.Errorf("shard %q has no compute time", s.Name)
		}
	}
	if ps.CommitNS <= 0 {
		t.Errorf("the serial commit has no commit time")
	}
	// Per-worker busy time (its shards' compute, plus the commit on
	// worker 0, measured as disjoint intervals on one goroutine) cannot
	// exceed wall time. The engine block-partitions shards: worker w
	// owns [w*n/W, (w+1)*n/W).
	n := len(ps.Shards)
	for w := 0; w < workers; w++ {
		var busy int64
		if w == 0 {
			busy = ps.CommitNS
		}
		for i := w * n / workers; i < (w+1)*n/workers; i++ {
			busy += ps.Shards[i].ComputeNS
		}
		if busy > int64(wall) {
			t.Errorf("worker %d measured busy %v exceeds wall %v",
				w, time.Duration(busy), wall)
		}
		if ps.Barrier[w].Count() == 0 {
			t.Errorf("worker %d recorded no barrier waits", w)
		}
	}
	// And the total across all workers is bounded by workers x wall.
	total := ps.TotalComputeNS() + ps.TotalCommitNS()
	if total > int64(wall)*workers {
		t.Errorf("total phase time %v exceeds %d x wall %v",
			time.Duration(total), workers, wall)
	}
}

// TestPhaseStatsNilOnSerialPath checks the accessor stays nil when the
// engine runs serially (no Workers) even with PhaseStats requested.
func TestPhaseStatsNilOnSerialPath(t *testing.T) {
	sys, err := NewSystem(Config{
		Network: "mesh", Nodes: 16, LineBytes: 32, BufferFlits: 4,
		Workload: PaperWorkload(), Seed: goldenSeed,
		PhaseStats: true, // no Workers: serial path
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.PhaseStats() != nil {
		t.Fatal("PhaseStats non-nil on the serial path")
	}
}
