package ringmesh

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"ringmesh/internal/network"
)

// baseMesh returns a valid mesh configuration the hash tests mutate.
func baseMesh() (Config, RunOptions) {
	return Config{
		Network:     "mesh",
		Nodes:       64,
		LineBytes:   32,
		BufferFlits: 4,
		Workload:    PaperWorkload(),
		Seed:        42,
	}, DefaultRunOptions()
}

// baseRing returns a valid ring configuration the hash tests mutate.
func baseRing() (Config, RunOptions) {
	return Config{
		Network:   "ring",
		Nodes:     72,
		LineBytes: 32,
		Workload:  PaperWorkload(),
		Seed:      42,
	}, DefaultRunOptions()
}

func mustKey(t *testing.T, cfg Config, opt RunOptions) string {
	t.Helper()
	key, err := CacheKey(cfg, opt)
	if err != nil {
		t.Fatalf("CacheKey(%+v): %v", cfg, err)
	}
	if len(key) != 64 { // hex sha256
		t.Fatalf("CacheKey returned %q; want 64 hex chars", key)
	}
	return key
}

// TestCacheKeyEquivalentSpellings pins the collapse half of the
// cache-correctness contract: every spelling of one logical
// configuration must hash to one key, or the cache loses hits it is
// entitled to. The cache serves one spelling's Result for another, so
// a spelling must also run, under QuickRunOptions, to a Result whose
// JSON is its base's byte for byte (every case below but the Table 2
// cells, which would run 40 rings).
func TestCacheKeyEquivalentSpellings(t *testing.T) {
	cfg, opt := baseMesh()
	base := mustKey(t, cfg, opt)
	// quickJSON runs c under QuickRunOptions, with the spelling's own
	// changes to the schedule applied, and encodes the Result.
	quickJSON := func(t *testing.T, c Config, mutate func(*Config, *RunOptions)) []byte {
		t.Helper()
		o := QuickRunOptions()
		mutate(&c, &o)
		res, err := Run(c, o)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	same := func(*Config, *RunOptions) {}
	baseJSON := quickJSON(t, cfg, same)

	cases := []struct {
		name   string
		mutate func(*Config, *RunOptions)
	}{
		{"nodes vs resolved topology", func(c *Config, _ *RunOptions) {
			c.Nodes = 0
			c.Topology = "8x8"
		}},
		{"mem latency zero vs default", func(c *Config, _ *RunOptions) {
			c.MemLatencyCycles = 10
		}},
		{"watchdog zero vs default", func(_ *Config, o *RunOptions) {
			o.WatchdogCycles = 20000
		}},
		{"metrics are observation-only", func(c *Config, _ *RunOptions) {
			c.Metrics = true
			c.MetricsIntervalCycles = 500
		}},
		{"trace is observation-only", func(c *Config, _ *RunOptions) {
			c.Trace = true
			c.TraceOnlyPacket = 7
		}},
		{"workers are execution-only", func(c *Config, _ *RunOptions) {
			c.Workers = 8
		}},
		{"phase stats are observation-only", func(c *Config, _ *RunOptions) {
			c.Workers = 8
			c.PhaseStats = true
		}},
		{"timeout does not change the result value", func(_ *Config, o *RunOptions) {
			o.Timeout = 1e9
		}},
		{"fail-on-stall does not change the result value", func(_ *Config, o *RunOptions) {
			o.FailOnStall = true
		}},
		{"fidelity empty vs explicit simulate", func(c *Config, _ *RunOptions) {
			c.Fidelity = "simulate"
		}},
		{"mesh ignores ring-only switches", func(c *Config, _ *RunOptions) {
			c.DoubleSpeedGlobal = true
			c.SlottedSwitching = true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, opt := baseMesh()
			tc.mutate(&cfg, &opt)
			if got := mustKey(t, cfg, opt); got != base {
				t.Errorf("key changed: %s vs base %s", got, base)
			}
			mesh, _ := baseMesh()
			if got := quickJSON(t, mesh, tc.mutate); string(got) != string(baseJSON) {
				t.Errorf("same key, different Result:\n got: %s\nbase: %s", got, baseJSON)
			}
		})
	}

	// Ring side: BufferFlits is mesh-only, so a ring config must hash
	// the same with or without it.
	rcfg, ropt := baseRing()
	rbase, rJSON := mustKey(t, rcfg, ropt), quickJSON(t, rcfg, same)
	rcfg.BufferFlits = 16
	if got := mustKey(t, rcfg, ropt); got != rbase {
		t.Errorf("ring key moved with mesh-only BufferFlits: %s vs %s", got, rbase)
	}
	if got := quickJSON(t, rcfg, same); string(got) != string(rJSON) {
		t.Errorf("ring Result moved with mesh-only BufferFlits:\n got: %s\nbase: %s", got, rJSON)
	}

	// Ring nodes:N vs the Table 2 hierarchy it resolves to, in every
	// cell of the paper's table.
	for cell := range network.PaperTable2 {
		ncfg, nopt := baseRing()
		ncfg.Nodes, ncfg.LineBytes = cell[0], cell[1]
		tcfg := ncfg
		topology, err := OptimalRingTopology(cell[0], cell[1])
		if err != nil {
			t.Fatal(err)
		}
		tcfg.Topology = topology
		if nk, tk := mustKey(t, ncfg, nopt), mustKey(t, tcfg, nopt); nk != tk {
			t.Errorf("ring %d PMs / %dB: nodes key %s, topology %s key %s", cell[0], cell[1], nk, topology, tk)
		}
		nTopo, _, err := CanonicalTopology(ncfg)
		if err != nil {
			t.Fatal(err)
		}
		if tTopo, _, err := CanonicalTopology(tcfg); err != nil || nTopo != tTopo || nTopo != topology {
			t.Errorf("ring %d PMs / %dB: canonical %s from nodes, %s (%v) from topology %s", cell[0], cell[1], nTopo, tTopo, err, topology)
		}
	}

}

// TestCacheKeyDistinguishesSemanticChanges pins the split half of the
// contract: any field that can change a Result must change the key,
// or the cache serves wrong answers.
func TestCacheKeyDistinguishesSemanticChanges(t *testing.T) {
	cfg, opt := baseMesh()
	base := mustKey(t, cfg, opt)

	cases := []struct {
		name   string
		mutate func(*Config, *RunOptions)
	}{
		{"seed", func(c *Config, _ *RunOptions) { c.Seed = 43 }},
		{"line bytes", func(c *Config, _ *RunOptions) { c.LineBytes = 64 }},
		{"buffer flits (mesh)", func(c *Config, _ *RunOptions) { c.BufferFlits = 8 }},
		{"nodes", func(c *Config, _ *RunOptions) { c.Nodes = 256 }},
		{"network family", func(c *Config, _ *RunOptions) {
			c.Network = "ring"
			c.Nodes = 72
			c.BufferFlits = 0
		}},
		{"workload miss rate", func(c *Config, _ *RunOptions) { c.Workload.C = 0.08 }},
		{"workload window", func(c *Config, _ *RunOptions) { c.Workload.T = 1 }},
		{"workload locality", func(c *Config, _ *RunOptions) { c.Workload.R = 0.5 }},
		{"workload read probability", func(c *Config, _ *RunOptions) { c.Workload.ReadProb = 0.5 }},
		{"open-loop generation", func(c *Config, _ *RunOptions) { c.Workload.OpenLoop = true }},
		{"mem latency", func(c *Config, _ *RunOptions) { c.MemLatencyCycles = 30 }},
		{"histogram (changes observation set)", func(c *Config, _ *RunOptions) { c.Histogram = true }},
		{"warmup", func(_ *Config, o *RunOptions) { o.WarmupCycles = 8000 }},
		{"batch cycles", func(_ *Config, o *RunOptions) { o.BatchCycles = 2000 }},
		{"batches", func(_ *Config, o *RunOptions) { o.Batches = 16 }},
		{"watchdog horizon (changes stall outcome)", func(_ *Config, o *RunOptions) { o.WatchdogCycles = 100 }},
		{"fidelity analytic", func(c *Config, _ *RunOptions) { c.Fidelity = "analytic" }},
	}
	seen := map[string]string{base: "base"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, opt := baseMesh()
			tc.mutate(&cfg, &opt)
			got := mustKey(t, cfg, opt)
			if prev, dup := seen[got]; dup {
				t.Errorf("key collides with %q: %s", prev, got)
			}
			seen[got] = tc.name
		})
	}

	// Ring-only switches must distinguish ring configs.
	rcfg, ropt := baseRing()
	rbase := mustKey(t, rcfg, ropt)
	rcfg.DoubleSpeedGlobal = true
	dsg := mustKey(t, rcfg, ropt)
	if dsg == rbase {
		t.Errorf("ring key ignored DoubleSpeedGlobal")
	}
	rcfg.SlottedSwitching = true
	if got := mustKey(t, rcfg, ropt); got == dsg || got == rbase {
		t.Errorf("ring key ignored SlottedSwitching")
	}
}

// TestCacheKeyInvalidConfig ensures validation errors surface with the
// model's own message instead of minting a key for garbage.
func TestCacheKeyInvalidConfig(t *testing.T) {
	cfg, opt := baseMesh()
	cfg.Nodes = 63 // not a square
	if _, err := CacheKey(cfg, opt); err == nil {
		t.Fatalf("CacheKey accepted a 63-node mesh")
	}

	cfg, opt = baseMesh()
	cfg.Workload.C = 0 // no misses: invalid workload
	if _, err := CacheKey(cfg, opt); err == nil {
		t.Fatalf("CacheKey accepted a zero miss rate")
	}
}

// TestCacheKeyStable pins one literal key so accidental changes to the
// canonical form (field renames, normalization tweaks, new fields
// leaking into the hash) fail loudly and force a cacheKeyVersion bump
// decision. If this test fails, either restore the canonical form or
// bump cacheKeyVersion and update the literal — never silently accept
// a drifted key, which would orphan every cached result.
func TestCacheKeyStable(t *testing.T) {
	cfg, opt := baseMesh()
	a := mustKey(t, cfg, opt)
	b := mustKey(t, cfg, opt)
	if a != b {
		t.Fatalf("CacheKey not deterministic: %s vs %s", a, b)
	}
	const pinned = "11f42efd1bc053584aeadeb274f08347b275018a808509d8be65f3ef949a8df0"
	if a != pinned {
		t.Fatalf("CacheKey canonical form drifted:\n got %s\nwant %s", a, pinned)
	}

	// Fidelity joined the canonical form as omitempty: explicit
	// "simulate" must still produce the exact pre-fidelity key, so no
	// cached exact result is orphaned by the new field.
	cfg.Fidelity = "simulate"
	if got := mustKey(t, cfg, opt); got != pinned {
		t.Fatalf("explicit simulate fidelity drifted the key:\n got %s\nwant %s", got, pinned)
	}

}

// goldenWantDigests records, per cacheKeyVersion, the sha256 over each
// case in versionedGoldens: its name, then the JSON of its want.
var goldenWantDigests = map[string]string{
	"ringmesh-v2": "dc6588d81344cdfc994c71d62372b93bd0c05bce54770d65d13b1beef522b17e",
}

// versionedGoldens are the golden cases whose pinned Results the
// digest covers: those of goldenCases when the guard was written,
// listed by name so adding a case does not trip it.
var versionedGoldens = []string{
	"ring-2:3:4-32B",
	"ring-3:3:8-32B-double-global",
	"ring-2:3:4-32B-slotted",
	"ring-2:3:4-32B-slotted-double-global",
	"ring-8-32B-double-global",
	"ring-8-32B-slotted-double-global",
	"mesh-8x8-32B-4flit",
	"ring-2:3:4-32B-open-loop",
	"mesh-4x4-32B-4flit-open-loop",
	"ring-2:3:4-32B-deterministic",
	"mesh-4x4-32B-4flit-memlat1",
	"mesh-4x4-32B-4flit-memlat40",
}

// TestGoldenRepinBumpsCacheKeyVersion: a re-pinned golden means
// results changed for an unchanged (Config, RunOptions), and a daemon
// with a disk cache would keep serving the old ones under the old key.
// So the golden Results are pinned by one digest recorded against the
// current cacheKeyVersion, and re-pinning any of them without a bump
// fails here.
func TestGoldenRepinBumpsCacheKeyVersion(t *testing.T) {
	wants := map[string]Result{}
	for _, tc := range goldenCases() {
		wants[tc.name] = tc.want
	}
	h := sha256.New()
	for _, name := range versionedGoldens {
		want, ok := wants[name]
		if !ok {
			t.Fatalf("golden case %q is gone; restore it or bump cacheKeyVersion and drop it here", name)
		}
		raw, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(name))
		h.Write(raw)
	}
	if got, recorded := hex.EncodeToString(h.Sum(nil)), goldenWantDigests[cacheKeyVersion]; got != recorded {
		t.Fatalf("golden Results digest under cacheKeyVersion %q = %s; recorded %q.\n"+
			"A re-pinned golden changes results for an unchanged (Config, RunOptions): "+
			"bump cacheKeyVersion in hash.go, then record %s under the new version in goldenWantDigests.",
			cacheKeyVersion, got, recorded, got)
	}
}

// TestCacheKeyFidelity pins the multi-fidelity contract: the two
// answer tiers never share a key (their numbers differ for one
// configuration), while simulation-only knobs the analytic backend
// provably ignores collapse analytic spellings onto one key.
func TestCacheKeyFidelity(t *testing.T) {
	cfg, opt := baseMesh()
	exact := mustKey(t, cfg, opt)

	cfg.Fidelity = "analytic"
	analytic := mustKey(t, cfg, opt)
	if analytic == exact {
		t.Fatalf("analytic and simulate share a key: %s", analytic)
	}

	// The closed-form backend reads no RNG and runs no schedule, so
	// seed, histogram and the batch schedule must not split analytic
	// keys — equivalent estimates answer from one cache entry.
	for name, mutate := range map[string]func(*Config, *RunOptions){
		"seed":      func(c *Config, _ *RunOptions) { c.Seed = 99 },
		"histogram": func(c *Config, _ *RunOptions) { c.Histogram = true },
		"schedule": func(_ *Config, o *RunOptions) {
			o.WarmupCycles, o.BatchCycles, o.Batches, o.WatchdogCycles = 1, 2, 3, 4
		},
	} {
		mcfg, mopt := baseMesh()
		mcfg.Fidelity = "analytic"
		mutate(&mcfg, &mopt)
		if got := mustKey(t, mcfg, mopt); got != analytic {
			t.Errorf("analytic key moved with %s: %s vs %s", name, got, analytic)
		}
	}

	// Semantic fields still split analytic keys.
	mcfg, mopt := baseMesh()
	mcfg.Fidelity = "analytic"
	mcfg.LineBytes = 64
	if got := mustKey(t, mcfg, mopt); got == analytic {
		t.Error("analytic key ignored LineBytes")
	}

	// "auto" is an admission policy, not an answer tier: it must be
	// resolved before keying, never hashed.
	acfg, aopt := baseMesh()
	acfg.Fidelity = "auto"
	if _, err := CacheKey(acfg, aopt); err == nil {
		t.Fatal("CacheKey minted a key for fidelity \"auto\"")
	}

	acfg.Fidelity = "nonesuch"
	if _, err := CacheKey(acfg, aopt); err == nil {
		t.Fatal("CacheKey minted a key for an unknown fidelity")
	}
}

// TestIgnoredFieldsAnswerAsPlain pins the one rule for a field a family
// does not read: setting it moves neither the cache key, at either
// tier, nor the analytic outcome — the same Result bytes, or the same
// refusal — so a fresh estimate and a cache hit can never disagree.
func TestIgnoredFieldsAnswerAsPlain(t *testing.T) {
	ring, _ := baseRing()
	ringDoubleSpeed := ring // refused for a field the ring does read
	ringDoubleSpeed.DoubleSpeedGlobal = true
	mesh, _ := baseMesh()
	families := []struct {
		plains  []Config
		ignored map[string]func(*Config)
	}{
		{[]Config{ring, ringDoubleSpeed}, map[string]func(*Config){
			"buffer_flits": func(c *Config) { c.BufferFlits = 16 },
		}},
		{[]Config{mesh}, map[string]func(*Config){
			"double_speed_global": func(c *Config) { c.DoubleSpeedGlobal = true },
			"slotted_switching":   func(c *Config) { c.SlottedSwitching = true },
			"unsafe_no_vc":        func(c *Config) { c.UnsafeNoVC = true },
		}},
	}
	outcome := func(cfg Config) string {
		cfg.Fidelity = "analytic"
		res, err := Estimate(cfg, RunOptions{})
		if err != nil {
			return "refused: " + err.Error()
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	for _, fam := range families {
		for _, base := range fam.plains {
			for field, set := range fam.ignored {
				cfg := base
				set(&cfg)
				name := base.Network + " " + field
				for _, fid := range []string{"simulate", "analytic"} {
					want, got := base, cfg
					want.Fidelity, got.Fidelity = fid, fid
					if k, w := mustKey(t, got, RunOptions{}), mustKey(t, want, RunOptions{}); k != w {
						t.Errorf("%s: %s key %s, plain %s", name, fid, k, w)
					}
				}
				if got, want := outcome(cfg), outcome(base); got != want {
					t.Errorf("%s:\n got  %s\n want %s", name, got, want)
				}
			}
		}
	}
}
