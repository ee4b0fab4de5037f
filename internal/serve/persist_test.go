package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ringmesh"
	"ringmesh/internal/metrics"
)

// fullResult exercises every Result field class (floats, ints, bools)
// so round-trip tests cover the whole wire surface.
func fullResult() ringmesh.Result {
	return ringmesh.Result{
		LatencyCycles:     123.4567890123,
		LatencyCI95:       0.0078125,
		Observations:      987654,
		RingUtilization:   []float64{0.5, 0.25, 1.0 / 3.0},
		Throughput:        0.1 + 0.2, // deliberately not exactly 0.3
		Issued:            1000,
		Completed:         999,
		Local:             500,
		LatencyP50:        100.5,
		LatencyP95:        200.25,
		LatencyP99:        300.125,
		LatencyMax:        400,
		BatchesCorrelated: true,
		Saturated:         true,
	}
}

func newTestDisk(t *testing.T) *diskStore {
	t.Helper()
	d, err := newDiskStore(t.TempDir(), &metrics.Registry{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiskStoreRoundTripBitIdentical pins the observation-equivalence
// claim: a result served from disk is byte-identical (as JSON) to the
// result that was stored — including float64 values JSON must
// round-trip exactly via shortest-roundtrip encoding.
func TestDiskStoreRoundTripBitIdentical(t *testing.T) {
	d := newTestDisk(t)
	want := fullResult()
	d.store("k1", want)

	got, ok := d.load("k1")
	if !ok {
		t.Fatal("stored entry not loadable")
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("round trip not bit-identical:\n%s\nvs\n%s", wantJSON, gotJSON)
	}
	if d.hits.Value() != 1 || d.writes.Value() != 1 {
		t.Fatalf("hits=%d writes=%d; want 1/1", d.hits.Value(), d.writes.Value())
	}
}

func TestDiskStoreMissOnAbsent(t *testing.T) {
	d := newTestDisk(t)
	if _, ok := d.load("nope"); ok {
		t.Fatal("absent key reported as hit")
	}
	if d.misses.Value() != 1 {
		t.Fatalf("misses = %d; want 1", d.misses.Value())
	}
}

// corruptions models the crash and bit-rot shapes the store must
// refuse to serve: a kill -9 that truncated the payload, a flipped
// bit, a future/foreign format version, and free-form garbage.
var corruptions = []struct {
	name    string
	corrupt func([]byte) []byte
}{
	{"truncated payload", func(raw []byte) []byte { return raw[:len(raw)-7] }},
	{"bit flip", func(raw []byte) []byte {
		out := append([]byte(nil), raw...)
		out[len(out)-3] ^= 0x40
		return out
	}},
	{"version mismatch", func(raw []byte) []byte {
		return bytes.Replace(raw, []byte(diskFormatVersion), []byte("ringmeshd-disk-v999"), 1)
	}},
	{"garbage", func([]byte) []byte { return []byte("not an entry at all") }},
	{"empty file", func([]byte) []byte { return nil }},
}

// TestDiskStoreQuarantinesCorruptEntries writes a good entry, mangles
// it in place, and asserts the store (a) reports a miss, (b) moves
// the file into quarantine rather than leaving it live or deleting
// the evidence, and (c) accepts a recomputed replacement afterwards.
func TestDiskStoreQuarantinesCorruptEntries(t *testing.T) {
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			d := newTestDisk(t)
			d.store("k", fullResult())
			raw, err := os.ReadFile(d.path("k"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(d.path("k"), tc.corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			if _, ok := d.load("k"); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if d.quarantined.Value() != 1 {
				t.Fatalf("quarantined = %d; want 1", d.quarantined.Value())
			}
			if _, err := os.Stat(d.path("k")); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry still live: %v", err)
			}
			if _, err := os.Stat(filepath.Join(d.dir, quarantineDir, "k"+entrySuffix)); err != nil {
				t.Fatalf("corrupt entry not in quarantine: %v", err)
			}

			// The key is recomputable: a fresh store overwrites cleanly
			// and serves again.
			d.store("k", fullResult())
			if _, ok := d.load("k"); !ok {
				t.Fatal("recomputed entry not served after quarantine")
			}
		})
	}
}

// TestDiskStoreCountsIOErrors: a read or a write the file system
// refuses (here a directory squatting on the entry's name) is a counted
// miss or a counted lost write — never an error to the caller, and
// never a temp file left behind.
func TestDiskStoreCountsIOErrors(t *testing.T) {
	d := newTestDisk(t)
	if err := os.Mkdir(d.path("k"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(d.path("k"), "x"), nil, 0o644); err != nil {
		t.Fatal(err) // non-empty, so a rename cannot replace it
	}
	if _, ok := d.load("k"); ok {
		t.Fatal("directory served as a hit")
	}
	d.store("k", fullResult())
	if got := d.ioErrors.Value(); got != 2 {
		t.Fatalf("io errors = %d; want 2 (the read and the write)", got)
	}
	if d.writes.Value() != 0 || d.misses.Value() != 1 {
		t.Fatalf("writes=%d misses=%d; want 0 and 1", d.writes.Value(), d.misses.Value())
	}
	if tmps, _ := filepath.Glob(filepath.Join(d.dir, ".tmp-*")); len(tmps) != 0 {
		t.Fatalf("failed write left temp files: %v", tmps)
	}
}

// TestCacheRecomputesAfterQuarantine drives the same scenario through
// the resultCache: a corrupted disk entry must trigger recomputation
// (the compute callback runs), not a wrong answer and not an error.
func TestCacheRecomputesAfterQuarantine(t *testing.T) {
	dir := t.TempDir()
	d, err := newDiskStore(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := newResultCache(4, d, nil)
	ctx := context.Background()

	computes := 0
	compute := func() (ringmesh.Result, error) { computes++; return res(10), nil }
	if _, _, err := c.do(ctx, "k", nil, compute); err != nil {
		t.Fatal(err)
	}

	// Truncate the durable copy mid-payload (a torn write that somehow
	// kept the entry name), then drop the memory tier by building a
	// fresh cache over the same directory — the restart scenario.
	raw, err := os.ReadFile(d.path("k"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.path("k"), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := newResultCache(4, d, nil)
	r, cached, err := c2.do(ctx, "k", nil, compute)
	if err != nil || cached || r.LatencyCycles != 10 {
		t.Fatalf("post-corruption do = (%v, %v, %v); want fresh recompute", r.LatencyCycles, cached, err)
	}
	if computes != 2 {
		t.Fatalf("computed %d times; want 2 (original + recompute)", computes)
	}
}

// TestCacheRestartServesFromDisk is the crash-recovery contract: a
// result computed before a restart is a hit afterwards, served from
// the durable tier without recomputation.
func TestCacheRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	reg1 := &metrics.Registry{}
	d1, err := newDiskStore(dir, reg1, nil)
	if err != nil {
		t.Fatal(err)
	}
	c1 := newResultCache(4, d1, reg1)
	want := fullResult()
	if _, _, err := c1.do(context.Background(), "k", nil, func() (ringmesh.Result, error) {
		return want, nil
	}); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh store, fresh cache, fresh registry over the same
	// directory — no memory state survives.
	reg2 := &metrics.Registry{}
	d2, err := newDiskStore(dir, reg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2 := newResultCache(4, d2, reg2)

	computes := 0
	r, cached, err := c2.do(context.Background(), "k", nil, func() (ringmesh.Result, error) {
		computes++
		return ringmesh.Result{}, nil
	})
	if err != nil || !cached || computes != 0 {
		t.Fatalf("post-restart do = (cached %v, err %v, computes %d); want disk hit, no compute", cached, err, computes)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(r)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("restart result differs:\n%s\nvs\n%s", wantJSON, gotJSON)
	}
	if d2.hits.Value() != 1 {
		t.Fatalf("disk hits = %d; want 1", d2.hits.Value())
	}
	if c2.misses.Value() != 0 {
		t.Fatalf("cache misses = %d; want 0 (the point of durability)", c2.misses.Value())
	}
	// get() probes the durable tier too — the submission-time path.
	c3 := newResultCache(4, d2, nil)
	if _, ok := c3.get("k"); !ok {
		t.Fatal("get() did not fall through to the durable tier")
	}
}

// TestDiskStoreSharedDirectory simulates two replicas mounting one
// directory: a result stored by one is a hit for the other, and
// double-stores are harmless.
func TestDiskStoreSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	a, err := newDiskStore(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newDiskStore(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.store("k", res(7))
	b.store("k", res(7)) // deterministic results: racing writers write identical bytes
	if r, ok := b.load("k"); !ok || r.LatencyCycles != 7 {
		t.Fatalf("replica load = (%v, %v); want 7", r.LatencyCycles, ok)
	}
}
