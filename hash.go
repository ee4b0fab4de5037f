package ringmesh

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"ringmesh/internal/core"
	"ringmesh/internal/fault"
	"ringmesh/internal/fidelity"
)

// cacheKeyVersion tags the canonical form; bump it whenever the
// simulation semantics change in a way that alters results for an
// unchanged (Config, RunOptions) pair, so stale cached results can
// never be served as current ones.
const cacheKeyVersion = "ringmesh-v1"

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
	// Family-specific geometry. Fields a family is known to ignore are
	// zeroed by CacheKey so they cannot split equivalent configs.
	BufferFlits       int  `json:"buffer_flits"`
	DoubleSpeedGlobal bool `json:"double_speed_global"`
	SlottedSwitching  bool `json:"slotted_switching"`
	IRIQueueFlits     int  `json:"iri_queue_flits"`
	UnsafeNoVC        bool `json:"unsafe_no_vc"`

	Workload   Workload `json:"workload"`
	MemLatency int      `json:"mem_latency"` // resolved default
	Seed       uint64   `json:"seed"`
	Histogram  bool     `json:"histogram"`
	FaultPlan  string   `json:"fault_plan"` // canonical rendering, "" when empty

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
//   - the geometry is resolved through the topology registry, so
//     Nodes: 64 and Topology: "8x8" hash equal (and invalid configs
//     fail here, with the model's own validation message);
//   - defaulted fields are resolved (MemLatencyCycles 0 = 10,
//     WatchdogCycles 0 = 20000);
//   - the fault plan is parsed and re-rendered canonically, so "" and
//     "none" (both observationally free) hash equal;
//   - fields a network family is known to ignore are zeroed (a mesh
//     hashes the same with or without DoubleSpeedGlobal);
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

	c := canonicalRun{
		Version:  cacheKeyVersion,
		Network:  cfg.Network,
		Topology: r.plan.Topology,
		PMs:      r.plan.PMs,

		LineBytes:         cfg.LineBytes,
		BufferFlits:       cfg.BufferFlits,
		DoubleSpeedGlobal: cfg.DoubleSpeedGlobal,
		SlottedSwitching:  cfg.SlottedSwitching,
		IRIQueueFlits:     0, // not reachable through the facade Config
		UnsafeNoVC:        cfg.UnsafeNoVC,

		Workload:   cfg.Workload,
		MemLatency: r.sys.MemLatency,
		Seed:       cfg.Seed,
		Histogram:  cfg.Histogram,
		FaultPlan:  canonicalFaultPlan(r.sys.FaultPlan),

		WarmupCycles:   opt.WarmupCycles,
		BatchCycles:    opt.BatchCycles,
		Batches:        opt.Batches,
		WatchdogCycles: opt.WatchdogCycles,
	}
	if c.WatchdogCycles == 0 {
		c.WatchdogCycles = core.DefaultWatchdogCycles
	}
	// Zero the fields the built-in families ignore. Unknown (third
	// party) families keep every field raw: conservative, never wrong.
	switch cfg.Network {
	case "ring":
		c.BufferFlits = 0
	case "mesh":
		c.DoubleSpeedGlobal = false
		c.SlottedSwitching = false
		c.IRIQueueFlits = 0
		c.UnsafeNoVC = false
	}
	// Fidelity joins the key so an analytic estimate can never answer a
	// request for an exact result (or vice versa). Simulate stays "" —
	// omitted from the JSON — keeping every pre-fidelity simulate key
	// byte-identical (pinned by TestCacheKeyStable). The closed-form
	// backend reads no RNG and runs no schedule, so seed, histogram and
	// the warmup/batch/watchdog schedule are zeroed for analytic keys:
	// equivalent analytic requests collapse onto one cache entry.
	if r.fidelity != fidelity.Simulate {
		c.Fidelity = r.fidelity
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

// canonicalFaultPlan re-renders a parsed fault plan in a canonical
// spelling: "" for every observationally-free plan (empty
// string, "none", a generator asked for zero events — the golden
// tests prove these bit-identical to no plan at all), the
// round-trippable event DSL otherwise. Event order is preserved, not
// sorted: Plan.Materialize breaks start-cycle ties by plan order, so
// reordered events are not provably equivalent.
func canonicalFaultPlan(plan *fault.Plan) string {
	if plan == nil || plan.Empty() {
		return ""
	}
	parts := make([]string, 0, len(plan.Events)+1)
	for _, e := range plan.Events {
		parts = append(parts, e.String())
	}
	if g := plan.Gen; g != nil && g.Events > 0 {
		mean, factor := g.MeanDuration, g.MaxFactor
		if mean == 0 {
			mean = 64 // GenSpec's documented defaults, resolved so
		}
		if factor == 0 {
			factor = 4 // explicit and elided spellings hash equal
		}
		parts = append(parts, fmt.Sprintf("rand:events=%d,seed=%d,horizon=%d,mean-dur=%d,max-factor=%d",
			g.Events, g.Seed, g.Horizon, mean, factor))
	}
	return strings.Join(parts, ";")
}
