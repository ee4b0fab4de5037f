package ringmesh

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// triageCandidates is the candidate set of a topofind-style analytic
// triage, the set the repo benchmark's analytic-triage workload asks:
// every ring hierarchy of at most 4 levels with branching at most 3
// and leaf rings within the single-ring capacity, for 4..128 PMs at
// each line size, plus the square meshes 2x2..11x11 with 1-flit,
// 4-flit and line-sized (0) buffers. 464 geometries; Workload is left
// for the caller to set.
func triageCandidates() []Config {
	var cfgs []Config
	for _, cl := range []int{16, 32, 64, 128} {
		for p := 4; p <= 128; p++ {
			for _, t := range EnumerateRingTopologies(p, 4, 3, SingleRingCapacity(cl)) {
				cfgs = append(cfgs, Config{Network: "ring", Topology: t, LineBytes: cl, Fidelity: "analytic"})
			}
		}
		for k := 2; k <= 11; k++ {
			for _, buf := range []int{1, 4, 0} {
				cfgs = append(cfgs, Config{Network: "mesh", Topology: fmt.Sprintf("%dx%d", k, k),
					LineBytes: cl, BufferFlits: buf, Fidelity: "analytic"})
			}
		}
	}
	return cfgs
}

// TestEstimateTriageDigest pins every analytic answer of the triage
// candidate set at R=1.0 and R=0.2 (928 answers) as one sha256 of
// their JSON documents: a change to how the estimator computes may not
// move a single bit of what it answers. TestEstimateGolden shows the
// answers themselves; this test covers the whole set.
func TestEstimateTriageDigest(t *testing.T) {
	const want = "1264cd98022f8d965116f935345a697b3846e107e644072cd2d008d60a85d86b"
	cands := triageCandidates()
	if len(cands) != 464 {
		t.Fatalf("%d triage candidates, want 464", len(cands))
	}
	h := sha256.New()
	for _, r := range []float64{1.0, 0.2} {
		for _, cfg := range cands {
			cfg.Workload = Workload{R: r, C: 0.04, T: 4, ReadProb: 0.7}
			res, err := Estimate(cfg, DefaultRunOptions())
			if err != nil {
				t.Fatalf("%s %s @%dB: %v", cfg.Network, cfg.Topology, cfg.LineBytes, err)
			}
			doc, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(append(doc, '\n'))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("triage answers hash to %s, want %s", got, want)
	}
}
