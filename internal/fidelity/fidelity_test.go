package fidelity

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"ringmesh/internal/core"
	"ringmesh/internal/network"
	"ringmesh/internal/node"
	"ringmesh/internal/workload"
)

// goldenConfigs is the validation matrix: every network family the
// analytic backend claims to model, across the geometry axes that
// change its formulas (hierarchy shape, line size, mesh buffer depth).
// These mirror the facade's golden-test configurations.
var goldenConfigs = []struct {
	network  string
	topology string
	line     int
	buf      int
}{
	{"ring", "6", 32, 0},
	{"ring", "2:4", 64, 0},
	{"ring", "2:2:3", 128, 0},
	{"ring", "3:6", 32, 0},
	{"mesh", "3x3", 32, 4},
	{"mesh", "4x4", 64, 0},
	{"mesh", "2x2", 128, 1},
}

// loadSweep is the C axis. Only the low-load point gates: the
// analytic model is a zero-load latency plus a saturation bound, so
// it is certified where queueing is negligible and merely recorded
// where it is not (the ungated rows document the drift).
var loadSweep = []struct {
	c    float64
	gate bool
}{
	{0.0005, true},
	{0.005, false},
	{0.02, false},
}

// validationRun is the run schedule for the harness: long batches so
// the sparse low-load traffic still yields hundreds of observations.
var validationRun = core.RunConfig{WarmupCycles: 20000, BatchCycles: 20000, Batches: 8}

func validationConfig(netName, topology string, line, buf int, c float64) core.SystemConfig {
	return core.SystemConfig{
		Network: netName,
		Net: network.Config{
			Topology:    topology,
			LineBytes:   line,
			BufferFlits: buf,
		},
		Workload:   workload.MMRP{R: 1.0, C: c, T: 1, ReadProb: 0.7},
		MemLatency: node.DefaultMemLatency,
		Seed:       1,
	}
}

// estimate resolves the geometry as the facade does and answers the
// configuration analytically.
func estimate(cfg core.SystemConfig) (core.Result, error) {
	plan, err := network.New(cfg.Network, cfg.Net)
	if err != nil {
		return core.Result{}, err
	}
	return Estimate(plan, cfg)
}

// bothTiers answers one configuration analytically and by running the
// flit-level engine on the given schedule.
func bothTiers(t *testing.T, cfg core.SystemConfig, rc core.RunConfig) (est, exact core.Result) {
	t.Helper()
	est, err := estimate(cfg)
	if err != nil {
		t.Fatalf("analytic: %v", err)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if exact, err = sys.Run(rc); err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return est, exact
}

// TestAnalyticWithinRecordedBounds is the validation harness: it runs
// both tiers over the golden configs and the load sweep, and fails
// if the analytic estimate drifts outside the recorded bound on any
// gated (low-load) row. With FIDELITY_RECORD=1 it instead re-measures
// every row and rewrites both copies of analytic-bounds.csv (the
// embedded one and results/).
func TestAnalyticWithinRecordedBounds(t *testing.T) {
	record := os.Getenv("FIDELITY_RECORD") == "1"
	var recorded []BoundRow
	existing := map[string]BoundRow{}
	if !record {
		rows, err := Bounds()
		if err != nil {
			t.Fatalf("embedded bounds: %v", err)
		}
		for _, r := range rows {
			existing[rowKey(r.Network, r.Topology, r.LineBytes, r.BufferFlits, r.C)] = r
		}
	}

	for _, gc := range goldenConfigs {
		for _, pt := range loadSweep {
			name := fmt.Sprintf("%s/%s@%dB/buf%d/C=%g", gc.network, gc.topology, gc.line, gc.buf, pt.c)
			t.Run(name, func(t *testing.T) {
				if !record && !pt.gate {
					t.Skip("ungated load point: recorded for documentation only")
				}
				cfg := validationConfig(gc.network, gc.topology, gc.line, gc.buf, pt.c)
				est, exact := bothTiers(t, cfg, validationRun)
				if exact.LatencyCycles <= 0 {
					t.Fatalf("simulator produced latency %v", exact.LatencyCycles)
				}
				relErr := math.Abs(est.LatencyCycles-exact.LatencyCycles) / exact.LatencyCycles
				t.Logf("analytic %.4f vs simulated %.4f (rel err %.4f)", est.LatencyCycles, exact.LatencyCycles, relErr)

				if record {
					recorded = append(recorded, BoundRow{
						Network:     gc.network,
						Topology:    gc.topology,
						LineBytes:   gc.line,
						BufferFlits: gc.buf,
						C:           pt.c,
						Analytic:    est.LatencyCycles,
						Simulated:   exact.LatencyCycles,
						RelErr:      relErr,
						Gate:        pt.gate,
						Bound:       admittedBound(relErr),
					})
					return
				}
				row, ok := existing[rowKey(gc.network, gc.topology, gc.line, gc.buf, pt.c)]
				if !ok {
					t.Fatalf("no recorded bound for this config; regenerate with FIDELITY_RECORD=1")
				}
				if relErr > row.Bound {
					t.Errorf("analytic drifted outside recorded bound: rel err %.4f > bound %.4f "+
						"(recorded rel err was %.4f); if the change is intentional, regenerate with FIDELITY_RECORD=1",
						relErr, row.Bound, row.RelErr)
				}
			})
		}
	}

	if record {
		data := FormatBounds(recorded)
		for _, path := range []string{"analytic-bounds.csv", "../../results/analytic-bounds.csv"} {
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("recorded %d rows to analytic-bounds.csv and results/analytic-bounds.csv", len(recorded))
	}
}

func rowKey(netName, topology string, line, buf int, c float64) string {
	return fmt.Sprintf("%s|%s|%d|%d|%g", netName, topology, line, buf, c)
}

// admittedBound turns an observed relative error into the enforced
// bound: double the observation with a floor, so deterministic reruns
// always pass while real model drift still trips the gate.
func admittedBound(relErr float64) float64 {
	b := 2 * relErr
	if b < 0.02 {
		b = 0.02
	}
	// Round up to the CSV's 4-decimal precision so the parsed bound is
	// never below the intended one.
	return math.Ceil(b*1e4) / 1e4
}

// TestBoundsFilesIdentical pins the embedded bounds table and the
// human-facing copy under results/ byte-identical, so neither can be
// edited without the other (FIDELITY_RECORD=1 rewrites both).
func TestBoundsFilesIdentical(t *testing.T) {
	disk, err := os.ReadFile("../../results/analytic-bounds.csv")
	if err != nil {
		t.Fatalf("results copy: %v (regenerate with FIDELITY_RECORD=1)", err)
	}
	if string(disk) != boundsCSV {
		t.Fatalf("results/analytic-bounds.csv differs from the embedded copy; regenerate both with FIDELITY_RECORD=1")
	}
}

func TestBoundsCoverGoldenConfigs(t *testing.T) {
	rows, err := Bounds()
	if err != nil {
		t.Fatal(err)
	}
	gated := map[string]bool{}
	for _, r := range rows {
		if r.Gate {
			gated[rowKey(r.Network, r.Topology, r.LineBytes, r.BufferFlits, r.C)] = true
		}
	}
	for _, gc := range goldenConfigs {
		found := false
		for _, pt := range loadSweep {
			if pt.gate && gated[rowKey(gc.network, gc.topology, gc.line, gc.buf, pt.c)] {
				found = true
			}
		}
		if !found {
			t.Errorf("golden config %s %s @%dB buf%d has no gated bound row", gc.network, gc.topology, gc.line, gc.buf)
		}
	}
}

func TestBoundFor(t *testing.T) {
	// Exact gated match.
	b, ok := BoundFor("ring", network.Config{Topology: "2:4", LineBytes: 64})
	if !ok {
		t.Fatal("no bound for validated ring config")
	}
	if b.MaxRelErr <= 0 || b.MaxRelErr > 1 {
		t.Fatalf("implausible bound %v", b.MaxRelErr)
	}
	if !strings.Contains(b.Basis, "2:4") {
		t.Errorf("exact-match basis should name the config: %q", b.Basis)
	}

	// Unvalidated geometry falls back to the family-wide envelope.
	fb, ok := BoundFor("ring", network.Config{Topology: "2:2:2:2", LineBytes: 32})
	if !ok {
		t.Fatal("no family fallback bound for ring")
	}
	if !strings.Contains(fb.Basis, "worst case") {
		t.Errorf("fallback basis should say so: %q", fb.Basis)
	}
	// The family envelope must cover every exact bound.
	if fb.MaxRelErr < b.MaxRelErr {
		t.Errorf("family bound %v below a member's bound %v", fb.MaxRelErr, b.MaxRelErr)
	}

	// Mesh exact match distinguishes buffer depth.
	if _, ok := BoundFor("mesh", network.Config{Topology: "3x3", LineBytes: 32, BufferFlits: 4}); !ok {
		t.Error("no bound for validated mesh config")
	}

	if _, ok := BoundFor("nonesuch", network.Config{Topology: "3x3", LineBytes: 32}); ok {
		t.Error("bound invented for an unknown network")
	}
}

func TestNormalize(t *testing.T) {
	for _, tc := range []struct {
		in, want string
		wantErr  bool
	}{
		{"", Simulate, false},
		{"simulate", Simulate, false},
		{"analytic", Analytic, false},
		{"auto", "", true},
		{"exact", "", true},
		{"ANALYTIC", "", true},
	} {
		got, err := Normalize(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("Normalize(%q) = %q, want error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("Normalize(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
	}
}

func TestAnalyticUnsupported(t *testing.T) {
	base := func() core.SystemConfig {
		return validationConfig("mesh", "3x3", 32, 4, 0.04)
	}
	cases := map[string]core.SystemConfig{}

	// Ring-only features are refused on a ring; on a mesh they are
	// ignored fields, answered as the plain mesh (the root package's
	// TestIgnoredFieldsAnswerAsPlain pins that).
	ringBase := func() core.SystemConfig {
		return validationConfig("ring", "2:4", 32, 0, 0.04)
	}
	c := ringBase()
	c.Net.SlottedSwitching = true
	cases["slotted"] = c

	c = ringBase()
	c.Net.DoubleSpeedGlobal = true
	cases["double-speed"] = c

	c = ringBase()
	c.Net.UnsafeNoVC = true
	cases["no-vc"] = c

	c = base()
	c.Workload.OpenLoop = true
	cases["open-loop"] = c

	c = base()
	c.Workload.Deterministic = true
	cases["deterministic"] = c

	for name, cfg := range cases {
		if _, err := estimate(cfg); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: err = %v, want ErrUnsupported", name, err)
		}
	}

	// An unknown network is a configuration error (network.New's own
	// message), not an unsupported-feature refusal.
	c = base()
	c.Network = "nonesuch"
	if _, err := estimate(c); err == nil {
		t.Error("unknown network accepted")
	}
}

// TestAnalyticSaturationVerdict checks the saturation side of the
// estimate: far past the bisection bound the analytic backend must
// agree with the simulator that the configuration saturates, and at
// trickle load that it does not.
func TestAnalyticSaturationVerdict(t *testing.T) {
	low := validationConfig("ring", "2:4", 32, 0, 0.0005)
	res, err := estimate(low)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Error("trickle load marked saturated")
	}
	if len(res.RingUtilization) == 0 || res.RingUtilization[0] <= 0 || res.RingUtilization[0] > 0.1 {
		t.Errorf("trickle-load utilization %v implausible", res.RingUtilization)
	}

	high := validationConfig("ring", "2:4", 32, 0, 0.5)
	res, err = estimate(high)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Error("C=0.5 not marked saturated")
	}
	if res.RingUtilization[0] != 1 {
		t.Errorf("saturated utilization = %v, want clamped 1", res.RingUtilization)
	}
}
