package ringmesh

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
)

// Golden determinism tests: the exact Result values below were
// captured from the simulator at a pinned seed and must never change
// unintentionally. Any refactor of the engine, the network models, or
// the assembly layers has to reproduce these numbers bit for bit —
// same seed, same throughput and latency — or it has changed the
// simulation, not just the code. Update the constants only when a
// deliberate modelling change is made (and say so in DESIGN.md).

const goldenSeed = 12345

// goldenCase pairs a configuration with its pinned result.
type goldenCase struct {
	name string
	cfg  Config
	opt  RunOptions
	want Result
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			// The paper's base 3-level hierarchy class (2:3:4 = 24 PMs,
			// 32B lines) under the default batch-means schedule.
			name: "ring-2:3:4-32B",
			cfg: Config{
				Network:   "ring",
				Topology:  "2:3:4",
				LineBytes: 32,
				Workload:  PaperWorkload(),
				Seed:      goldenSeed,
			},
			opt: DefaultRunOptions(),
			want: Result{
				LatencyCycles:   123.063309432494,
				LatencyCI95:     2.7550844897939086,
				Observations:    17991,
				RingUtilization: []float64{0.589875, 0.78043359375, 0.34932708333333334},
				Throughput:      0.56221875,
				Issued:          20284,
				Completed:       20202,
				Local:           907,
			},
		},
		{
			// Multi-rate clocking path: double-speed global ring.
			name: "ring-3:3:8-32B-double-global",
			cfg: Config{
				Network:           "ring",
				Topology:          "3:3:8",
				LineBytes:         32,
				DoubleSpeedGlobal: true,
				Workload:          PaperWorkload(),
				Seed:              goldenSeed,
			},
			opt: QuickRunOptions(),
			want: Result{
				LatencyCycles:   231.5663815544812,
				LatencyCI95:     23.67944838193414,
				Observations:    2689,
				RingUtilization: []float64{0.44945833333333335, 0.7091875, 0.28525617283950616},
				Throughput:      0.67225,
				Issued:          3560,
				Completed:       3297,
				Local:           45,
				Saturated:       true,
			},
		},
		{
			// The slotted-ring switching extension.
			name: "ring-2:3:4-32B-slotted",
			cfg: Config{
				Network:          "ring",
				Topology:         "2:3:4",
				LineBytes:        32,
				SlottedSwitching: true,
				Workload:         PaperWorkload(),
				Seed:             goldenSeed,
			},
			opt: QuickRunOptions(),
			want: Result{
				LatencyCycles:   295.7957931638913,
				LatencyCI95:     67.59497117213412,
				Observations:    1141,
				RingUtilization: []float64{0.6856714178544636, 0.7345273818454614, 0.5962990747686921},
				Throughput:      0.28525,
				Issued:          1476,
				Completed:       1387,
				Local:           57,
				Saturated:       true,
			},
		},
		{
			// An 8x8 mesh with the paper's 4-flit buffers.
			name: "mesh-8x8-32B-4flit",
			cfg: Config{
				Network:     "mesh",
				Nodes:       64,
				LineBytes:   32,
				BufferFlits: 4,
				Workload:    PaperWorkload(),
				Seed:        goldenSeed,
			},
			opt: DefaultRunOptions(),
			want: Result{
				LatencyCycles:   229.95306202054368,
				LatencyCI95:     2.9453719190896175,
				Observations:    30764,
				MeshUtilization: 0.35379045758928573,
				Throughput:      0.961375,
				Issued:          34761,
				Completed:       34538,
				Local:           583,
				Saturated:       true,
			},
		},
	}
}

func TestGoldenResults(t *testing.T) {
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got, err := Run(tc.cfg, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("golden mismatch\n got: %#v\nwant: %#v", got, tc.want)
			}
		})
	}
}

// TestGoldenResultsWithEmptyFaultPlan re-runs every golden case with
// fault injection enabled but the plan empty ("none") and demands the
// same Results bit for bit: the fault subsystem must be zero-cost —
// and zero-effect — until a plan actually schedules an event.
func TestGoldenResultsWithEmptyFaultPlan(t *testing.T) {
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg
			cfg.FaultPlan = "none"
			got, err := Run(cfg, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("empty fault plan changed the simulation\n got: %#v\nwant: %#v", got, tc.want)
			}
		})
	}
}

// TestGoldenResultsWithMetrics re-runs every golden case with the
// instrument registry and sampler attached and demands the same
// Results bit for bit: metrics are observation-only, so enabling them
// must never perturb the simulation.
func TestGoldenResultsWithMetrics(t *testing.T) {
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg
			cfg.Metrics = true
			cfg.MetricsIntervalCycles = 50
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sys.Run(tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("metrics changed the simulation\n got: %#v\nwant: %#v", got, tc.want)
			}
			if len(sys.MetricNames()) == 0 || len(sys.MetricSamples()) == 0 {
				t.Errorf("metrics enabled but empty: %d series, %d samples",
					len(sys.MetricNames()), len(sys.MetricSamples()))
			}
		})
	}
}

// TestMetricsGlobalRingRunsHotter checks the instrumented utilization
// reproduces the paper's qualitative hierarchy behaviour: under
// uniform traffic (R=1.0) the upper rings carry the concentrated
// cross-cluster load, so the global ring's link utilization exceeds
// the local rings'.
func TestMetricsGlobalRingRunsHotter(t *testing.T) {
	sys, err := NewSystem(Config{
		Network:               "ring",
		Topology:              "2:3:8",
		LineBytes:             32,
		Workload:              PaperWorkload(),
		Seed:                  goldenSeed,
		Metrics:               true,
		MetricsIntervalCycles: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(QuickRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	global, local := res.RingUtilization[0], res.RingUtilization[len(res.RingUtilization)-1]
	if !(global > local) {
		t.Fatalf("global ring util %.3f not above local %.3f at R=1.0", global, local)
	}
	// The sampled series must agree with the aggregate ordering.
	names := sys.MetricNames()
	gi, li := -1, -1
	for i, k := range names {
		switch k {
		case "ring_link_util{link=L0}":
			gi = i
		case "ring_link_util{link=L2}":
			li = i
		}
	}
	if gi < 0 || li < 0 {
		t.Fatalf("ring_link_util series missing from %v", names)
	}
	var gSum, lSum float64
	samples := sys.MetricSamples()
	if len(samples) == 0 {
		t.Fatal("no metric samples")
	}
	for _, row := range samples {
		gSum += row.Values[gi]
		lSum += row.Values[li]
	}
	if !(gSum > lSum) {
		t.Fatalf("sampled global util %.3f not above local %.3f", gSum/float64(len(samples)), lSum/float64(len(samples)))
	}
}

// TestGoldenMetricsSeries pins the metrics-on time series themselves,
// not just the Result they must not perturb: nic_inject_stall_cycles
// is evaluated inside the ring station's commit from live queue
// lengths and ring_link_util reads the per-station link counters, so
// a rewrite of the station tick has to reproduce every sampled value.
// The digests are sha256 of WriteMetricsCSV; re-record them only with
// a deliberate modelling change.
func TestGoldenMetricsSeries(t *testing.T) {
	cases := []struct {
		name        string
		doubleSpeed bool
		want        string
	}{
		{"ring-3:3:8-32B", false, "e2abd784eb5afa1b88eeccfd7534cffafa9c63a4b6105e911f52b79846db6ecc"},
		{"ring-3:3:8-32B-double-global", true, "4ddbf74ffce6b326c87d49eb0051ed00a255b745aedebf28915416da95b06dab"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sys, err := NewSystem(Config{
				Network: "ring", Topology: "3:3:8", LineBytes: 32,
				DoubleSpeedGlobal: tc.doubleSpeed,
				Workload:          PaperWorkload(), Seed: goldenSeed,
				Metrics: true, MetricsIntervalCycles: 50,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(QuickRunOptions()); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := sys.WriteMetricsCSV(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("metrics series digest = %s, want %s", got, tc.want)
			}
		})
	}
}
