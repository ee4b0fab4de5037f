package ringmesh

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"ringmesh/internal/core"
	"ringmesh/internal/fidelity"
)

// cacheKeyVersion tags the canonical form; bump it whenever the
// simulation semantics change in a way that alters results for an
// unchanged (Config, RunOptions) pair, so stale cached results can
// never be served as current ones. TestGoldenRepinBumpsCacheKeyVersion
// fails when a golden Result is re-pinned without a bump.
const cacheKeyVersion = "ringmesh-v2"

// analyticKeyVersion tags the closed-form model inside analytic keys
// only; bump it whenever Estimate's answer changes for an unchanged
// (Config, RunOptions), so a cached estimate is never served for a
// newer model. TestEstimateRepinBumpsAnalyticKeyVersion fails when
// testdata/estimate.golden's answers are re-pinned without a bump.
const analyticKeyVersion = "analytic-v1"

// canonicalRun is the canonical form CacheKey hashes: every field
// that can change a Result, normalized so equivalent spellings of one
// logical configuration collapse onto one key. Field order is fixed
// by the struct definition (encoding/json emits in declaration
// order), making the rendered bytes deterministic.
type canonicalRun struct {
	Version  string `json:"v"`
	Network  string `json:"network"`
	Topology string `json:"topology"` // resolved canonical notation
	PMs      int    `json:"pms"`

	LineBytes int `json:"line_bytes"`
	// Family-specific geometry, read from the resolved plan's Net, where
	// fields the family ignores are already zero so they cannot split
	// equivalent configs.
	BufferFlits       int  `json:"buffer_flits"`
	DoubleSpeedGlobal bool `json:"double_speed_global"`
	SlottedSwitching  bool `json:"slotted_switching"`
	IRIQueueFlits     int  `json:"iri_queue_flits"`
	UnsafeNoVC        bool `json:"unsafe_no_vc"`

	Workload   Workload `json:"workload"`
	MemLatency int      `json:"mem_latency"` // resolved default
	Seed       uint64   `json:"seed"`
	Histogram  bool     `json:"histogram"`

	WarmupCycles   int64 `json:"warmup_cycles"`
	BatchCycles    int64 `json:"batch_cycles"`
	Batches        int   `json:"batches"`
	WatchdogCycles int64 `json:"watchdog_cycles"` // resolved default

	// Fidelity separates analytic estimates from exact results in the
	// cache: "" (omitted, so simulate keys are byte-identical to
	// pre-fidelity versions) for the exact engine, "analytic" for the
	// closed-form backend. The two tiers produce different numbers for
	// one configuration, so they must never share a key.
	Fidelity string `json:"fidelity,omitempty"`
	// AnalyticVersion is analyticKeyVersion on analytic keys and ""
	// (omitted) on simulate keys, which therefore keep their bytes.
	AnalyticVersion string `json:"analytic_v,omitempty"`
}

// CacheKey returns the canonical content hash of a simulation's
// semantic inputs — the fields of (cfg, opt) that can influence its
// Result. Because runs are fully deterministic (the golden tests
// prove bit-identical results for identical inputs), two calls with
// equal keys are guaranteed to produce byte-identical results: the
// key is a sound content address for a result cache, and ringmeshd
// uses it as exactly that.
//
// Canonicalization makes equivalent spellings of one configuration
// collapse onto one key:
//
//   - the geometry is resolved through network.New, so
//     Nodes: 64 and Topology: "8x8" hash equal (and invalid configs
//     fail here, with the model's own validation message);
//   - defaulted fields are resolved (MemLatencyCycles 0 = 10,
//     WatchdogCycles 0 = 20000);
//   - fields a network family ignores are zeroed (the plan's Net: a
//     mesh hashes the same with or without DoubleSpeedGlobal);
//   - observation-only fields never enter the hash: Metrics, Trace,
//     PhaseStats and their companions cannot change a Result
//     (golden-tested), and RunOptions.Timeout and FailOnStall only
//     decide whether a result is returned, never its value;
//   - execution-only fields never enter the hash either: Workers
//     selects the parallel engine, whose results are golden-tested
//     bit-identical to serial at every worker count, so a cached
//     serial result answers a parallel request and vice versa.
//
// The normalization is deliberately conservative: it only equates
// spellings proven equivalent, so distinct keys for identical results
// are possible (a harmless cache miss) but one key for differing
// results is not.
func CacheKey(cfg Config, opt RunOptions) (string, error) {
	// Fidelity "auto" fails to resolve: it is an admission policy, and
	// keying it would let one key alias two different answers.
	r, err := resolve(cfg)
	if err != nil {
		return "", err
	}

	net := r.plan.Net
	c := canonicalRun{
		Version:  cacheKeyVersion,
		Network:  cfg.Network,
		Topology: r.plan.Topology,
		PMs:      r.plan.PMs,

		LineBytes:         net.LineBytes,
		BufferFlits:       net.BufferFlits,
		DoubleSpeedGlobal: net.DoubleSpeedGlobal,
		SlottedSwitching:  net.SlottedSwitching,
		IRIQueueFlits:     net.IRIQueueFlits,
		UnsafeNoVC:        net.UnsafeNoVC,

		Workload:   cfg.Workload,
		MemLatency: r.sys.MemLatency,
		Seed:       cfg.Seed,
		Histogram:  cfg.Histogram,

		WarmupCycles:   opt.WarmupCycles,
		BatchCycles:    opt.BatchCycles,
		Batches:        opt.Batches,
		WatchdogCycles: opt.WatchdogCycles,
	}
	if c.WatchdogCycles == 0 {
		c.WatchdogCycles = core.DefaultWatchdogCycles
	}
	// Fidelity joins the key so an analytic estimate can never answer a
	// request for an exact result (or vice versa). Simulate stays "" —
	// omitted from the JSON — keeping every pre-fidelity simulate key
	// byte-identical (pinned by TestCacheKeyStable). The closed-form
	// backend reads no RNG and runs no schedule, so seed, histogram and
	// the warmup/batch/watchdog schedule are zeroed for analytic keys:
	// equivalent analytic requests collapse onto one key. The
	// closed-form model's own version joins instead, so a model change
	// moves every analytic key.
	if r.fidelity != fidelity.Simulate {
		c.Fidelity = r.fidelity
		c.AnalyticVersion = analyticKeyVersion
		c.Seed = 0
		c.Histogram = false
		c.WarmupCycles = 0
		c.BatchCycles = 0
		c.Batches = 0
		c.WatchdogCycles = 0
	}

	raw, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("ringmesh: canonicalize: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}
