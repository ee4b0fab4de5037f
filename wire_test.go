package ringmesh

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestResultWireDigests pins the JSON bytes of the three Result shapes
// the golden configs do not reach: percentiles, an analytic answer with
// its error bound, and a stall diagnosis on a run that still has a
// confidence interval. The digests were recorded before Result became
// an alias of core.Result; the served job documents, the disk-tier
// entries and the ledger's result digests are all these bytes.
func TestResultWireDigests(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		opt  RunOptions
		want string
	}{
		{
			name: "histogram",
			cfg: Config{Network: "ring", Topology: "2:3:4", LineBytes: 32,
				Workload: PaperWorkload(), Seed: goldenSeed, Histogram: true},
			opt:  QuickRunOptions(),
			want: "e404cf08388e2c497c083dba3d00d2e1a3f2e2ab51c052224d33db02b93d1147",
		},
		{
			name: "analytic",
			cfg: Config{Network: "mesh", Nodes: 64, LineBytes: 32, BufferFlits: 4,
				Workload: PaperWorkload(), Fidelity: "analytic"},
			opt:  DefaultRunOptions(),
			want: "b8764dddeea8188e95f22eec421d964d7c235528c01091c3f0a4f882b7390a7c",
		},
		{
			// The VC-less 72-PM hierarchy deadlocks about 19 350 cycles
			// in, after the second batch closed, so the watchdog trips
			// with a finite CI on record.
			name: "stall-after-two-batches",
			cfg: Config{Network: "ring", Topology: "3:3:8", LineBytes: 32,
				Workload: Workload{R: 1, C: 1, T: 2, ReadProb: 0.7}, Seed: 6, UnsafeNoVC: true},
			opt:  RunOptions{WarmupCycles: 2000, BatchCycles: 8000, Batches: 8, WatchdogCycles: 2000},
			want: "5c0f16d8b34b5aa7810e4af50c03c49e631e6a59ae3b309f2582a17ef5cdb8ed",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			switch tc.name {
			case "histogram":
				if res.LatencyP99 == 0 {
					t.Fatalf("no percentiles: %+v", res)
				}
			case "analytic":
				if res.Fidelity != "analytic" || res.ErrorBound == nil {
					t.Fatalf("unlabeled analytic answer: %+v", res)
				}
			default:
				if !res.Stalled || res.Stall == nil || math.IsInf(res.LatencyCI95, 0) {
					t.Fatalf("want a diagnosed stall with a finite CI: %+v", res)
				}
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("result bytes moved: sha256 %s, want %s\n%s", got, tc.want, raw)
			}
			var back Result
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, res) {
				t.Errorf("JSON round trip changed the result\n got: %#v\nwant: %#v", back, res)
			}
		})
	}
}

// TestRunsWithoutConfidenceIntervalRefused: a one-batch schedule and a
// one-PM geometry cannot produce a batch-means CI (it would be +Inf,
// which no JSON encoder accepts), so both are configuration errors at
// every entry point, naming the rule.
func TestRunsWithoutConfidenceIntervalRefused(t *testing.T) {
	cfg := Config{Network: "mesh", Nodes: 16, LineBytes: 32, BufferFlits: 4, Workload: PaperWorkload()}
	one := RunOptions{WarmupCycles: 100, BatchCycles: 100, Batches: 1}
	if err := one.Validate(); err == nil || !strings.Contains(err.Error(), "at least 2 batches") {
		t.Errorf("Validate(batches 1) = %v; want the 2-batch rule", err)
	}
	if res, err := Run(cfg, one); err == nil {
		t.Errorf("Run(batches 1) = %+v; want an error", res)
	}
	for _, geom := range []Config{
		{Network: "ring", Topology: "1"},
		{Network: "ring", Nodes: 1},
		{Network: "mesh", Topology: "1x1"},
		{Network: "mesh", Nodes: 1},
	} {
		geom.LineBytes, geom.Workload = 32, PaperWorkload()
		_, err := Run(geom, QuickRunOptions())
		if err == nil || !strings.Contains(err.Error(), "at least 2 PMs") {
			t.Errorf("Run(%s %q nodes=%d) = %v; want the 2-PM rule", geom.Network, geom.Topology, geom.Nodes, err)
		}
		if key, err := CacheKey(geom, QuickRunOptions()); err == nil {
			t.Errorf("CacheKey(%s %q nodes=%d) = %s; want an error", geom.Network, geom.Topology, geom.Nodes, key)
		}
	}
}

// TestGoldenResultsRoundTripJSON: every golden Result survives
// encoding/json unchanged, so a cached or served result is the value
// the simulator returned.
func TestGoldenResultsRoundTripJSON(t *testing.T) {
	for _, tc := range goldenCases() {
		raw, err := json.Marshal(tc.want)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var back Result
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(back, tc.want) {
			t.Errorf("%s: JSON round trip changed the result\n got: %#v\nwant: %#v", tc.name, back, tc.want)
		}
	}
}
