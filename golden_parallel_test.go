package ringmesh

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// Parallel determinism tests: Config.Workers must be an execution
// detail, invisible in every Result bit. The mesh is the one model the
// worker engine shards (per router row): its cases run at Workers 2, 4
// and NumCPU with the gang engaged and must equal the serial result
// deeply — including the order-dependent Welford statistics behind
// LatencyCycles and LatencyCI95, which stay serial because only the
// compute phase runs in parallel and the commit is the serial one. Every ring
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

// TestParallelTraceMatchesSerial pins tracing on the parallel engine:
// a traced mesh at Workers=4 computes in parallel, and because every
// trace event is recorded in the serial commit, its packet trace is
// the serial run's, line for line.
func TestParallelTraceMatchesSerial(t *testing.T) {
	t.Parallel()
	trace := func(workers int) (string, bool) {
		sys, err := NewSystem(Config{
			Network: "mesh", Topology: "4x4", LineBytes: 32, BufferFlits: 4,
			Workload: PaperWorkload(), Seed: goldenSeed,
			Workers: workers, Trace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(QuickRunOptions()); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := sys.WriteTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.String(), sys.Parallel()
	}
	serial, _ := trace(0)
	got, parallel := trace(4)
	if !parallel {
		t.Fatal("a traced 4x4 mesh at Workers=4 runs serial; want the parallel engine")
	}
	if serial == "" {
		t.Fatal("the serial run recorded no trace")
	}
	if got != serial {
		t.Errorf("Workers=4 trace (%d bytes) differs from the serial trace (%d bytes)", len(got), len(serial))
	}
}
