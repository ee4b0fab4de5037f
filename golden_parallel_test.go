package ringmesh

import (
	"reflect"
	"runtime"
	"testing"
)

// Parallel determinism tests: Config.Workers must be an execution
// detail, invisible in every Result bit. The mesh is the one model the
// worker engine shards (per router row): its cases run at Workers 2, 4
// and NumCPU with the gang engaged and must equal the serial result
// deeply — including the order-dependent Welford statistics behind
// LatencyCycles and LatencyCI95, which the parallel engine reproduces
// by draining per-PM completion cells in PM-id order. Every ring
// declines to partition (DESIGN §8), so its cases pin the boundary
// instead: Workers > 1 builds the serial engine, reports no phase
// stats and returns the Workers=0 result. These tests run under -race
// in CI.

// parallelWorkerCounts returns the worker counts to pin against the
// serial result, deduplicated (NumCPU may be 1, in which case workers
// still interleave correctness-visibly on one core).
func parallelWorkerCounts() []int {
	counts := []int{2, 4}
	if n := runtime.NumCPU(); n > 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// parallelCases returns every golden configuration on a Quick
// schedule — the pinned Default-schedule results stay covered by
// TestGoldenResults, while the Workers sweep, several runs per case,
// stays fast enough for -race on one core.
func parallelCases() []goldenCase {
	cases := goldenCases()
	for i := range cases {
		cases[i].opt = QuickRunOptions()
	}
	return cases
}

func TestParallelMatchesSerial(t *testing.T) {
	for _, tc := range parallelCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			serial, err := Run(tc.cfg, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			mesh := tc.cfg.Network == "mesh"
			for _, workers := range parallelWorkerCounts() {
				cfg := tc.cfg
				cfg.Workers = workers
				cfg.PhaseStats = !mesh
				sys, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if sys.Parallel() != mesh {
					t.Fatalf("Workers=%d: Parallel() = %v, want %v (meshes shard, rings run serial)",
						workers, sys.Parallel(), mesh)
				}
				got, err := sys.Run(tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				if !mesh && sys.PhaseStats() != nil {
					t.Errorf("Workers=%d: a ring reported phase stats from the serial engine", workers)
				}
				if !reflect.DeepEqual(got, serial) {
					t.Errorf("Workers=%d diverged from serial\n got: %#v\nwant: %#v",
						workers, got, serial)
				}
			}
		})
	}
}

// TestParallelMatchesPinnedGoldens re-checks the two golden cases
// whose pinned constants already use the Quick schedule directly
// against those constants at Workers=NumCPU — closing the loop from
// the parallel engine all the way to the captured numbers, not just
// to a same-process serial run.
func TestParallelMatchesPinnedGoldens(t *testing.T) {
	for _, tc := range goldenCases() {
		tc := tc
		if tc.opt != QuickRunOptions() {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg
			cfg.Workers = runtime.NumCPU() + 1 // also exercises the shard clamp
			got, err := Run(cfg, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("parallel run diverged from pinned golden\n got: %#v\nwant: %#v", got, tc.want)
			}
		})
	}
}

// TestParallelFallsBackSerially pins the decline path the sweep above
// does not reach: a model that does shard, with Workers set and tracing
// on, must run on the serial engine (the trace recorder is
// unsynchronized).
func TestParallelFallsBackSerially(t *testing.T) {
	t.Parallel()
	tsys, err := NewSystem(Config{
		Network: "mesh", Topology: "4x4", LineBytes: 32, BufferFlits: 4,
		Workload: PaperWorkload(), Seed: goldenSeed,
		Workers: 4, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tsys.Parallel() {
		t.Error("tracing is unsynchronized; want serial fallback with Workers set")
	}
}
