package ringmesh

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ringmesh/internal/fidelity"
)

var update = flag.Bool("update", false, "re-record testdata/*.golden")

// estimateGoldenConfigs is every configuration whose analytic answer
// the golden pins: each gated row of the recorded bounds table (exact
// error-bound matches) plus hierarchies and meshes away from it — by
// topology and by node count, with locality, at every mesh buffer
// depth the round-trip formula distinguishes, and past saturation —
// which fall back to the family-wide bound.
func estimateGoldenConfigs(t *testing.T) []Config {
	rows, err := fidelity.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []Config
	for _, r := range rows {
		if !r.Gate {
			continue
		}
		cfgs = append(cfgs, Config{
			Network: r.Network, Topology: r.Topology, LineBytes: r.LineBytes, BufferFlits: r.BufferFlits,
			Workload: Workload{R: 1, C: r.C, T: 1, ReadProb: 0.7}, Seed: 1,
		})
	}
	for _, r := range []float64{0.2, 0.5} {
		wl := PaperWorkload()
		wl.R = r
		cfgs = append(cfgs,
			Config{Network: "ring", Topology: "3:3:8", LineBytes: 32, Workload: wl},
			Config{Network: "ring", Nodes: 24, LineBytes: 64, Workload: wl, MemLatencyCycles: 25})
		for _, buf := range []int{0, 1, 4} {
			cfgs = append(cfgs, Config{Network: "mesh", Nodes: 64, LineBytes: 32, BufferFlits: buf, Workload: wl})
		}
	}
	hot := PaperWorkload()
	hot.C = 0.5
	return append(cfgs,
		Config{Network: "ring", Topology: "5:3:4", LineBytes: 128, Workload: hot},
		Config{Network: "mesh", Topology: "11x11", LineBytes: 128, BufferFlits: 1, Workload: hot})
}

// TestEstimateGolden pins every analytic answer — the Result document
// as the daemon serves it, error bound included — and its cache key,
// byte for byte. The estimator's packaging may change; its numbers and
// keys may not (-update re-records, for a deliberate model change
// only).
func TestEstimateGolden(t *testing.T) {
	var b strings.Builder
	for _, cfg := range estimateGoldenConfigs(t) {
		cfg.Fidelity = "analytic"
		res, err := Estimate(cfg, DefaultRunOptions())
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		key, err := CacheKey(cfg, DefaultRunOptions())
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		doc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		geometry := cfg.Topology
		if geometry == "" {
			geometry = fmt.Sprintf("nodes=%d", cfg.Nodes)
		}
		fmt.Fprintf(&b, "%s %s @%dB buf=%d R=%g C=%g\n  key %s\n  %s\n",
			cfg.Network, geometry, cfg.LineBytes, cfg.BufferFlits, cfg.Workload.R, cfg.Workload.C, key, doc)
	}
	const path = "testdata/estimate.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	if b.String() != string(want) {
		t.Errorf("analytic estimates drifted from %s:\n got:\n%s\nwant:\n%s", path, b.String(), want)
	}
}

// estimateGoldenDigests records, per analyticKeyVersion, the sha256 of
// testdata/estimate.golden without its key lines: every configuration
// and answer it pins.
var estimateGoldenDigests = map[string]string{
	"analytic-v1": "3bd449ff8fc7eb41b7063b4db2ff98581ef4eff43cf88ff42fcee32e1d17fb1c",
}

// TestEstimateRepinBumpsAnalyticKeyVersion: re-pinned estimates mean
// Estimate answers differently for an unchanged (Config, RunOptions),
// and any cache keyed by CacheKey would keep serving the old answers.
// So the pinned answers are covered by one digest recorded against the
// current analyticKeyVersion, and re-pinning them without a bump fails
// here. The key lines are left out: they move with the version itself.
func TestEstimateRepinBumpsAnalyticKeyVersion(t *testing.T) {
	raw, err := os.ReadFile("testdata/estimate.golden")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if !strings.HasPrefix(line, "  key ") {
			h.Write([]byte(line))
		}
	}
	if got, recorded := hex.EncodeToString(h.Sum(nil)), estimateGoldenDigests[analyticKeyVersion]; got != recorded {
		t.Fatalf("estimate golden digest under analyticKeyVersion %q = %s; recorded %q.\n"+
			"Re-pinned estimates change answers for an unchanged (Config, RunOptions): "+
			"bump analyticKeyVersion in hash.go, then record %s under the new version in estimateGoldenDigests.",
			analyticKeyVersion, got, recorded, got)
	}
}
