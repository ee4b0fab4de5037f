package ringmesh

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// Golden determinism tests: the exact Result values below were
// captured from the simulator at a pinned seed and must never change
// unintentionally. Any refactor of the engine, the network models, or
// the assembly layers has to reproduce these numbers bit for bit —
// same seed, same throughput and latency — or it has changed the
// simulation, not just the code. Update the constants only when a
// deliberate modelling change is made (and say so in DESIGN.md), and
// bump cacheKeyVersion: TestGoldenRepinBumpsCacheKeyVersion fails
// until you do.

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
			// Slotted switching under a double-speed global ring: the
			// global ring steps its slots on sub-cycle boundaries.
			name: "ring-2:3:4-32B-slotted-double-global",
			cfg: Config{
				Network:           "ring",
				Topology:          "2:3:4",
				LineBytes:         32,
				SlottedSwitching:  true,
				DoubleSpeedGlobal: true,
				Workload:          PaperWorkload(),
				Seed:              goldenSeed,
			},
			opt: QuickRunOptions(),
			want: Result{
				LatencyCycles:   298.14159292035396,
				LatencyCI95:     34.10612791697762,
				Observations:    1130,
				RingUtilization: []float64{0.4409448818897638, 0.7307764441110277, 0.6014253563390848},
				Throughput:      0.2825,
				Issued:          1468,
				Completed:       1381,
				Local:           57,
				Saturated:       true,
			},
		},
		{
			// A single double-speed ring: the global ring is the leaf
			// ring, so its second step of a PM cycle delivers to PMs.
			name: "ring-8-32B-double-global",
			cfg: Config{
				Network:           "ring",
				Topology:          "8",
				LineBytes:         32,
				DoubleSpeedGlobal: true,
				Workload:          PaperWorkload(),
				Seed:              goldenSeed,
			},
			opt: QuickRunOptions(),
			want: Result{
				LatencyCycles:   19.398589065255724,
				LatencyCI95:     1.360998528545069,
				Observations:    1134,
				RingUtilization: []float64{0.282640625},
				Throughput:      0.2835,
				Issued:          1423,
				Completed:       1421,
				Local:           193,
			},
		},
		{
			name: "ring-8-32B-slotted-double-global",
			cfg: Config{
				Network:           "ring",
				Topology:          "8",
				LineBytes:         32,
				SlottedSwitching:  true,
				DoubleSpeedGlobal: true,
				Workload:          PaperWorkload(),
				Seed:              goldenSeed,
			},
			opt: QuickRunOptions(),
			want: Result{
				LatencyCycles:   29.239804964539015,
				LatencyCI95:     0.7193136074036156,
				Observations:    1128,
				RingUtilization: []float64{0.5117172853393326},
				Throughput:      0.282,
				Issued:          1410,
				Completed:       1408,
				Local:           191,
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
		// The generator modes and memory latencies the paper workload
		// leaves at their defaults: the open-loop queue of misses, the
		// deterministic gap, and a memory service time at both ends.
		{
			name: "ring-2:3:4-32B-open-loop",
			cfg: Config{
				Network:   "ring",
				Topology:  "2:3:4",
				LineBytes: 32,
				Workload:  editWorkload(PaperWorkload(), func(w *Workload) { w.OpenLoop = true }),
				Seed:      goldenSeed,
			},
			opt: QuickRunOptions(),
			want: Result{
				LatencyCycles:   1071.6239430351577,
				LatencyCI95:     837.1473432248462,
				Observations:    2247,
				RingUtilization: []float64{0.585375, 0.7709375, 0.3489833333333333},
				Throughput:      0.56175,
				Issued:          2851,
				Completed:       2756,
				Local:           96,
			},
		},
		{
			name: "mesh-4x4-32B-4flit-open-loop",
			cfg: Config{
				Network:     "mesh",
				Topology:    "4x4",
				LineBytes:   32,
				BufferFlits: 4,
				Workload:    editWorkload(PaperWorkload(), func(w *Workload) { w.OpenLoop = true }),
				Seed:        goldenSeed,
			},
			opt: QuickRunOptions(),
			want: Result{
				LatencyCycles:   696.0120547945205,
				LatencyCI95:     452.4668567118693,
				Observations:    1825,
				MeshUtilization: 0.40411458333333333,
				Throughput:      0.45625,
				Issued:          2320,
				Completed:       2256,
				Local:           149,
			},
		},
		{
			name: "ring-2:3:4-32B-deterministic",
			cfg: Config{
				Network:   "ring",
				Topology:  "2:3:4",
				LineBytes: 32,
				Workload:  editWorkload(PaperWorkload(), func(w *Workload) { w.Deterministic = true }),
				Seed:      goldenSeed,
			},
			opt: QuickRunOptions(),
			want: Result{
				LatencyCycles:     137.34622222222228,
				LatencyCI95:       49.92273498225115,
				Observations:      2250,
				RingUtilization:   []float64{0.587, 0.78425, 0.35134166666666666},
				Throughput:        0.5625,
				Issued:            2826,
				Completed:         2755,
				Local:             101,
				BatchesCorrelated: true,
			},
		},
		{
			name: "mesh-4x4-32B-4flit-memlat1",
			cfg: Config{
				Network:          "mesh",
				Topology:         "4x4",
				LineBytes:        32,
				BufferFlits:      4,
				MemLatencyCycles: 1,
				Workload:         PaperWorkload(),
				Seed:             goldenSeed,
			},
			opt: QuickRunOptions(),
			want: Result{
				LatencyCycles:   91.62857142857145,
				LatencyCI95:     5.6769660114227,
				Observations:    1715,
				MeshUtilization: 0.3894947916666667,
				Throughput:      0.42875,
				Issued:          2180,
				Completed:       2127,
				Local:           125,
			},
		},
		{
			name: "mesh-4x4-32B-4flit-memlat40",
			cfg: Config{
				Network:          "mesh",
				Topology:         "4x4",
				LineBytes:        32,
				BufferFlits:      4,
				MemLatencyCycles: 40,
				Workload:         PaperWorkload(),
				Seed:             goldenSeed,
			},
			opt: QuickRunOptions(),
			want: Result{
				LatencyCycles:     150.2887537993921,
				LatencyCI95:       5.864013511643658,
				Observations:      1316,
				MeshUtilization:   0.2984583333333333,
				Throughput:        0.329,
				Issued:            1682,
				Completed:         1628,
				Local:             102,
				BatchesCorrelated: true,
			},
		},
	}
}

// editWorkload returns w edited by edit.
func editWorkload(w Workload, edit func(*Workload)) Workload { edit(&w); return w }

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

// TestLinkUtilSeriesMatchResult pins that the exported link-utilization
// series and the Result read the same counters over the same measured
// interval: after Run, each ring_link_util{link=Lk} equals
// RingUtilization[k] exactly, and the four mesh_link_util directions
// (each K(K-1) links of a KxK mesh) average to MeshUtilization.
func TestLinkUtilSeriesMatchResult(t *testing.T) {
	for _, cfg := range []Config{
		{Network: "ring", Topology: "3:3:8", LineBytes: 32},
		{Network: "ring", Topology: "2:4", LineBytes: 32, SlottedSwitching: true},
		{Network: "mesh", Topology: "8x8", LineBytes: 32},
	} {
		cfg.Workload, cfg.Seed, cfg.Metrics = PaperWorkload(), goldenSeed, true
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(QuickRunOptions())
		if err != nil {
			t.Fatal(err)
		}
		var mesh []float64
		rings := 0
		for _, s := range sys.inner.Metrics().Series() {
			switch s.Name {
			case "ring_link_util":
				var k int
				if _, err := fmt.Sscanf(s.Labels.Link, "L%d", &k); err != nil || k >= len(res.RingUtilization) {
					t.Fatalf("%s %s: series %s has no Result level", cfg.Network, cfg.Topology, s.Key())
				}
				if got, want := s.Value(), res.RingUtilization[k]; got != want {
					t.Errorf("%s %s: %s = %v, RingUtilization[%d] = %v", cfg.Network, cfg.Topology, s.Key(), got, k, want)
				}
				rings++
			case "mesh_link_util":
				mesh = append(mesh, s.Value())
			}
		}
		if rings != len(res.RingUtilization) {
			t.Errorf("%s %s: %d ring_link_util series for %d levels", cfg.Network, cfg.Topology, rings, len(res.RingUtilization))
		}
		if cfg.Network == "mesh" {
			if len(mesh) != 4 {
				t.Fatalf("mesh %s: %d mesh_link_util series, want 4", cfg.Topology, len(mesh))
			}
			mean := (mesh[0] + mesh[1] + mesh[2] + mesh[3]) / 4
			if math.Abs(mean-res.MeshUtilization) > 1e-12 || res.MeshUtilization == 0 {
				t.Errorf("mesh %s: mean direction util %v, MeshUtilization %v", cfg.Topology, mean, res.MeshUtilization)
			}
		}
	}
}

// TestGoldenMetricsSeries pins the metrics-on time series themselves,
// not just the Result they must not perturb: nic_inject_stall_cycles
// is counted inside the ring station tick from live queue lengths,
// mesh_ecube_turns in the mesh commit, and the utilization
// series read the link counters, so a rewrite of any tick has to
// reproduce every sampled value. The digests are sha256 of WriteMetricsCSV; re-record them
// only with a deliberate modelling change.
func TestGoldenMetricsSeries(t *testing.T) {
	ring338 := Config{Network: "ring", Topology: "3:3:8", LineBytes: 32}
	ring234 := Config{Network: "ring", Topology: "2:3:4", LineBytes: 32}
	mesh := Config{Network: "mesh", Nodes: 64, LineBytes: 32, BufferFlits: 4}
	with := func(cfg Config, edit func(*Config)) Config { edit(&cfg); return cfg }
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"ring-3:3:8-32B", ring338, "e2abd784eb5afa1b88eeccfd7534cffafa9c63a4b6105e911f52b79846db6ecc"},
		{"ring-3:3:8-32B-double-global", with(ring338, func(c *Config) { c.DoubleSpeedGlobal = true }),
			"d46254a8be01eca8558287ca0cf624aadddb4fa74c568fa8920cd0a2473c78ef"},
		{"mesh-8x8-32B-4flit-workers4", with(mesh, func(c *Config) { c.Workers = 4 }),
			"d42a796b9337837016ed002c2e9ff83a2610ac3ca789654d97f3c5ba2f7f3b0c"},
		// The slotted tick and the 4x4 mesh, recorded from the tree
		// that still had fault injection, so the series do not move
		// with its removal.
		{"ring-2:3:4-32B-slotted", with(ring234, func(c *Config) { c.SlottedSwitching = true }),
			"1656ae0b31d1a948690b972ebc52058eaf6c7861529b2ca1b2b1ec57a068d1b8"},
		{"mesh-4x4-32B-4flit", with(mesh, func(c *Config) { c.Nodes = 16 }),
			"8043ee3cb226e499d2ace3e7f91f25e8deefe6faa3b48c79689fcf9497e8f196"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg
			cfg.Workload, cfg.Seed = PaperWorkload(), goldenSeed
			cfg.Metrics, cfg.MetricsIntervalCycles = true, 50
			sys, err := NewSystem(cfg)
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
