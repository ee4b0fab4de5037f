package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ringmesh"
)

// decodeResult unwraps a jobDoc's raw result into the typed facade
// Result so tests can inspect the fidelity label and error bound.
func decodeResult(t *testing.T, d jobDoc) ringmesh.Result {
	t.Helper()
	if len(d.Result) == 0 {
		t.Fatalf("job %s has no result", d.ID)
	}
	var res ringmesh.Result
	mustUnmarshal(t, d.Result, &res)
	return res
}

// TestAutoRunAnalyticThenUpgrade is the acceptance flow for the auto
// policy: a cache-cold run is answered analytically in the response
// (labeled, with its error bound) while a background upgrade job lands
// the exact result under a distinct cache key; the next auto request
// is then served the cached exact result.
func TestAutoRunAnalyticThenUpgrade(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cfg, opt := testConfig(), testOptions()

	// The estimate and the exact result must live under different keys.
	acfg := cfg
	acfg.Fidelity = "analytic"
	akey, err := ringmesh.CacheKey(acfg, *opt)
	if err != nil {
		t.Fatal(err)
	}
	xkey, err := ringmesh.CacheKey(cfg, *opt)
	if err != nil {
		t.Fatal(err)
	}
	if akey == xkey {
		t.Fatalf("analytic and exact cache keys collide: %s", akey)
	}

	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{
		Config: cfg, Options: opt, Fidelity: "auto",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto POST = %d: %s", resp.StatusCode, raw)
	}
	doc := decodeDoc(t, raw)
	if doc.State != JobDone {
		t.Fatalf("auto run state = %s; want done inline", doc.State)
	}
	if doc.Upgrade == "" {
		t.Fatal("auto run carries no upgrade job ID")
	}
	est := decodeResult(t, doc)
	if est.Fidelity != "analytic" {
		t.Fatalf("auto answer fidelity = %q; want analytic", est.Fidelity)
	}
	if est.ErrorBound == nil || est.ErrorBound.MaxRelErr <= 0 {
		t.Fatalf("auto answer error bound = %+v; want a positive recorded bound", est.ErrorBound)
	}

	// The upgrade job completes with the exact, unlabeled result.
	up := awaitJob(t, ts.URL, doc.Upgrade, false)
	exact := decodeResult(t, up)
	if exact.Fidelity != "" || exact.ErrorBound != nil {
		t.Fatalf("upgrade result fidelity=%q bound=%v; want unlabeled exact", exact.Fidelity, exact.ErrorBound)
	}

	// A repeat auto request now prefers the cached exact result over a
	// fresh estimate.
	resp, raw = postJSON(t, ts.URL+"/v1/runs", runRequest{
		Config: cfg, Options: opt, Fidelity: "auto",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second auto POST = %d: %s", resp.StatusCode, raw)
	}
	doc = decodeDoc(t, raw)
	if doc.State != JobDone || !doc.Cached || doc.Upgrade != "" {
		t.Fatalf("second auto = state=%s cached=%v upgrade=%q; want done, cached, no upgrade",
			doc.State, doc.Cached, doc.Upgrade)
	}
	if res := decodeResult(t, doc); res.Fidelity != "" {
		t.Fatalf("second auto served fidelity %q; want cached exact", res.Fidelity)
	}

	body := getMetrics(t, ts.URL)
	for _, want := range []string{
		`ringmeshd_fidelity_requests_total{fidelity="auto"} 2`,
		`ringmeshd_fidelity_analytic_answers_total 1`,
		`ringmeshd_fidelity_upgrades_total 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestAutoUpgradeNotJournaled: an auto answer's upgrade job is
// best-effort, so it costs the journal nothing. With the worker held,
// an auto answer appends no record; the WAL never names the upgrade;
// and after a restart over the same directory nothing is replayed and
// the upgrade's ID reads 404.
func TestAutoUpgradeNotJournaled(t *testing.T) {
	leakCheck(t, 2)
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 1, JournalDir: dir})
	_, release := holdWorker(t, s, ts.URL)
	appends := func() float64 {
		return sumSeries(t, getMetrics(t, ts.URL), "ringmeshd_journal_appends_total")
	}
	before := appends()
	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: meshRun(16, 45), Options: testOptions(), Fidelity: "auto"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto POST = %d: %s", resp.StatusCode, raw)
	}
	upgrade := decodeDoc(t, raw).Upgrade
	if upgrade == "" {
		t.Fatalf("auto answer carries no upgrade job ID: %s", raw)
	}
	if n := appends() - before; n != 0 {
		t.Errorf("an auto answer appended %g journal records; want 0", n)
	}

	release()
	awaitJob(t, ts.URL, upgrade, false)
	ctx, cancel := drainCtx()
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(wal), []byte("\n")) {
		if rec, err := decodeRecord(line); err != nil || rec.ID == upgrade {
			t.Errorf("journal line %s (%v); want no record of the upgrade %s", line, err, upgrade)
		}
	}

	_, ts2 := newTestServer(t, Options{Workers: 1, JournalDir: dir})
	if n := sumSeries(t, getMetrics(t, ts2.URL), "ringmeshd_journal_replayed_total"); n != 0 {
		t.Errorf("restart replayed %g jobs; want none", n)
	}
	get, err := http.Get(ts2.URL + "/v1/jobs/" + upgrade)
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusNotFound {
		t.Errorf("GET the upgrade after a restart = %d; want 404", get.StatusCode)
	}
}

// TestExplicitAnalyticRun asks for the analytic tier by name: the
// answer is inline, labeled, never queued, and the second request is
// estimated again, not served from the cache.
func TestExplicitAnalyticRun(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := runRequest{Config: testConfig(), Options: testOptions(), Fidelity: "analytic"}

	resp, raw := postJSON(t, ts.URL+"/v1/runs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analytic POST = %d: %s", resp.StatusCode, raw)
	}
	doc := decodeDoc(t, raw)
	if doc.State != JobDone || doc.Cached || doc.Upgrade != "" {
		t.Fatalf("analytic run = state=%s cached=%v upgrade=%q; want fresh inline done, no upgrade",
			doc.State, doc.Cached, doc.Upgrade)
	}
	res := decodeResult(t, doc)
	if res.Fidelity != "analytic" || res.ErrorBound == nil {
		t.Fatalf("analytic result fidelity=%q bound=%v; want labeled with bound", res.Fidelity, res.ErrorBound)
	}

	resp, raw = postJSON(t, ts.URL+"/v1/runs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat analytic POST = %d: %s", resp.StatusCode, raw)
	}
	if doc = decodeDoc(t, raw); doc.Cached {
		t.Fatalf("repeat analytic run cached=%v; want a fresh estimate", doc.Cached)
	}

	body := getMetrics(t, ts.URL)
	for _, want := range []string{
		`ringmeshd_fidelity_requests_total{fidelity="analytic"} 2`,
		`ringmeshd_fidelity_analytic_answers_total 2`,
		`ringmeshd_fidelity_upgrades_total 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestEstimatesStayOutOfCache: an estimate is computed on every
// request, so with a disk tier a named analytic answer and an auto
// answer (its upgrade held in the queue) take no cache entry, write no
// entry file, and the second is computed again, not a hit on the first.
func TestEstimatesStayOutOfCache(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	_, release := holdWorker(t, s, ts.URL)
	defer release()
	for _, fid := range []string{"analytic", "auto"} {
		resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: meshRun(16, 46), Options: testOptions(), Fidelity: fid})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s POST = %d: %s", fid, resp.StatusCode, raw)
		}
		if doc := decodeDoc(t, raw); doc.Cached {
			t.Errorf("%s answer cached=true; an estimate is computed on every request", fid)
		}
	}
	body := getMetrics(t, ts.URL)
	for _, name := range []string{"ringmeshd_cache_entries", "ringmeshd_disk_cache_writes_total"} {
		if n := sumSeries(t, body, name); n != 0 {
			t.Errorf("%s = %g after two estimates; want 0", name, n)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*"+entrySuffix)); len(files) != 0 {
		t.Errorf("estimates wrote %v; want no entry file", files)
	}
}

// TestStoredEstimateNotServed: an estimate an older daemon stored under
// the analytic key is never read back. The entry is re-sealed with
// other numbers, as a model change would leave it; a daemon booted over
// it must answer with a fresh Estimate, not cached.
func TestStoredEstimateNotServed(t *testing.T) {
	dir := t.TempDir()
	cfg, opt := ringmesh.Config{Network: "ring", Topology: "24", LineBytes: 32,
		Workload: ringmesh.PaperWorkload(), Seed: 42}, testOptions()
	acfg := cfg
	acfg.Fidelity = "analytic"
	akey, err := ringmesh.CacheKey(acfg, *opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ringmesh.Estimate(acfg, *opt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDiskStore(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.store(akey, want)
	raw, err := os.ReadFile(d.path(akey))
	if err != nil {
		t.Fatal(err)
	}
	stale, err := decodeEntry(raw)
	if err != nil {
		t.Fatal(err)
	}
	stale.LatencyCycles = 1
	payload, err := json.Marshal(stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d.path(akey), encodeEntry(payload), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{CacheDir: dir})
	wantJSON, _ := json.Marshal(want)
	for _, fid := range []string{"analytic", "auto"} {
		resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg, Options: opt, Fidelity: fid})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s POST = %d: %s", fid, resp.StatusCode, raw)
		}
		doc := decodeDoc(t, raw)
		gotJSON, _ := json.Marshal(decodeResult(t, doc))
		if doc.Cached || !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s answer cached=%v %s; want cached=false and a fresh Estimate %s",
				fid, doc.Cached, gotJSON, wantJSON)
		}
	}
}

// unsupportedConfig is valid for the simulator but refused by the
// analytic model (it has no closed form for double-speed rings).
func unsupportedConfig() ringmesh.Config {
	return ringmesh.Config{
		Network:           "ring",
		Nodes:             16,
		LineBytes:         32,
		DoubleSpeedGlobal: true,
		Workload:          ringmesh.PaperWorkload(),
		Seed:              7,
	}
}

// TestAnalyticRefusalPaths: an explicit analytic request for an
// unsupported configuration is a 400; the same configuration under
// auto falls back to a normal exact enqueue instead of failing.
func TestAnalyticRefusalPaths(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cfg, opt := unsupportedConfig(), testOptions()

	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{
		Config: cfg, Options: opt, Fidelity: "analytic",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unsupported analytic POST = %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "analytic") {
		t.Fatalf("refusal body %s does not name the analytic tier", raw)
	}

	resp, raw = postJSON(t, ts.URL+"/v1/runs", runRequest{
		Config: cfg, Options: opt, Fidelity: "auto",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("auto fallback POST = %d: %s", resp.StatusCode, raw)
	}
	doc := awaitJob(t, ts.URL, decodeDoc(t, raw).ID, false)
	if res := decodeResult(t, doc); res.Fidelity != "" {
		t.Fatalf("fallback result fidelity = %q; want exact", res.Fidelity)
	}

	if body := getMetrics(t, ts.URL); !strings.Contains(body, "ringmeshd_fidelity_fallback_total 1") {
		t.Errorf("metrics missing fallback counter:\n%s", body)
	}
}

// TestIgnoredFieldAnswerIndependentOfCache: a mesh ignores the
// ring-only double_speed_global, so an analytic run carrying it gets
// the plain mesh's answer whether or not that answer is already
// cached — the same status and result on a fresh daemon as on one
// that just answered the plain mesh.
func TestIgnoredFieldAnswerIndependentOfCache(t *testing.T) {
	plain := testConfig()
	foreign := plain
	foreign.DoubleSpeedGlobal = true
	run := func(ts string, cfg ringmesh.Config) (int, []byte) {
		resp, raw := postJSON(t, ts+"/v1/runs", runRequest{Config: cfg, Options: testOptions(), Fidelity: "analytic"})
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, raw
		}
		return resp.StatusCode, decodeDoc(t, raw).Result
	}

	_, fresh := newTestServer(t, Options{})
	freshStatus, freshBody := run(fresh.URL, foreign)

	_, warm := newTestServer(t, Options{})
	if status, raw := run(warm.URL, plain); status != http.StatusOK {
		t.Fatalf("plain mesh analytic POST = %d: %s", status, raw)
	}
	warmStatus, warmBody := run(warm.URL, foreign)

	if freshStatus != warmStatus || !bytes.Equal(freshBody, warmBody) {
		t.Fatalf("fresh daemon: %d %s\nafter a plain-mesh request: %d %s", freshStatus, freshBody, warmStatus, warmBody)
	}
	if freshStatus != http.StatusOK {
		t.Fatalf("mesh with an ignored ring-only field = %d: %s", freshStatus, freshBody)
	}
}

// TestHostileGeometryIs400: a geometry past topo.MaxPMs — eight
// million PMs, a product that wraps int, a mesh whose locality table
// would be 64 GB — is a configuration error on the handler, under every
// fidelity, well inside a second; it used to hang the inline analytic
// path or exhaust memory.
func TestHostileGeometryIs400(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := &http.Client{Timeout: time.Second}
	for _, geom := range []string{
		`"network":"ring","topology":"1000:1000:8"`,
		`"network":"ring","topology":"3037000500:3037000500"`,
		`"network":"ring","topology":"65536:65536:65536:65536"`,
		`"network":"mesh","topology":"300x300"`,
		`"network":"mesh","nodes":90000`,
	} {
		for _, fid := range []string{"analytic", "auto", "simulate"} {
			body := `{"config":{` + geom + `,"line_bytes":32,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}},"fidelity":"` + fid + `"}`
			resp, err := client.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s %s: %v", geom, fid, err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "invalid config") {
				t.Errorf("%s %s: POST = %d: %s", geom, fid, resp.StatusCode, raw)
			}
		}
	}
}

// TestHostileFaultPlanIs400: the daemon has no fault plans, so a
// request that names one — a run, a sweep or a batch entry — is a 400
// naming the field, never a fault-free run under the client's job ID,
// and the daemon stays healthy.
func TestHostileFaultPlanIs400(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := &http.Client{Timeout: time.Second}
	const cfg = `{"network":"ring","topology":"2:4","line_bytes":32,"fault_plan":"stutter@600+2000:node=0",` +
		`"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`
	const opt = `{"warmup_cycles":100,"batch_cycles":100,"batches":2}`
	for path, body := range map[string]string{
		"/v1/runs":   `{"config":` + cfg + `,"options":` + opt + `}`,
		"/v1/sweeps": `{"config":` + cfg + `,"sizes":[4,8],"options":` + opt + `}`,
		"/v1/batch":  `{"runs":[{"config":` + cfg + `,"options":` + opt + `}]}`,
	} {
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), `unknown field \"fault_plan\"`) {
			t.Errorf("%s: POST = %d: %s", path, resp.StatusCode, raw)
		}
	}
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d after the refused plans", resp.StatusCode)
	}
}

// TestHugeMeshBufferIs400: a mesh input buffer deeper than the 256-flit
// cap (mesh.MaxBufferFlits) is a configuration error under every
// fidelity.
// At 50 M flits a 2x2 mesh's FIFOs would take gigabytes, which used to
// OOM-kill the daemon.
func TestHugeMeshBufferIs400(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	client := &http.Client{Timeout: time.Second}
	for _, buf := range []int{257, 50000000} {
		for _, fid := range []string{"analytic", "auto", "simulate"} {
			body := fmt.Sprintf(`{"config":{"network":"mesh","topology":"2x2","buffer_flits":%d,"line_bytes":32,`+
				`"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}},"fidelity":"%s"}`, buf, fid)
			resp, err := client.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("buffer %d %s: %v", buf, fid, err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "BufferFlits") {
				t.Errorf("buffer %d %s: POST = %d: %s", buf, fid, resp.StatusCode, raw)
			}
		}
	}
}

// TestAutoSweep: an auto sweep is answered inline with every point
// analytic-labeled, one upgrade sweep lands the exact curve, and the
// repeat auto sweep is served entirely from the exact cache.
func TestAutoSweep(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := sweepRequest{
		Config: testConfig(), Sizes: []int{9, 16}, Options: testOptions(), Fidelity: "auto",
	}

	resp, raw := postJSON(t, ts.URL+"/v1/sweeps", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto sweep POST = %d: %s", resp.StatusCode, raw)
	}
	doc := decodeDoc(t, raw)
	if doc.State != JobDone || doc.Upgrade == "" {
		t.Fatalf("auto sweep = state=%s upgrade=%q; want done inline with upgrade", doc.State, doc.Upgrade)
	}
	var points []ringmesh.SweepPoint
	mustUnmarshal(t, doc.Points, &points)
	if len(points) != 2 || points[0].Nodes != 9 || points[1].Nodes != 16 {
		t.Fatalf("auto sweep points = %+v; want sizes 9,16 in order", points)
	}
	for _, p := range points {
		if p.Result.Fidelity != "analytic" || p.Result.ErrorBound == nil {
			t.Fatalf("point %d fidelity=%q bound=%v; want labeled analytic",
				p.Nodes, p.Result.Fidelity, p.Result.ErrorBound)
		}
	}

	up := awaitJob(t, ts.URL, doc.Upgrade, false)
	var exact []ringmesh.SweepPoint
	mustUnmarshal(t, up.Points, &exact)
	if len(exact) != 2 || exact[0].Result.Fidelity != "" || exact[0].Result.Observations == 0 {
		t.Fatalf("upgrade sweep points = %+v; want 2 exact simulated points", exact)
	}

	resp, raw = postJSON(t, ts.URL+"/v1/sweeps", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second auto sweep POST = %d: %s", resp.StatusCode, raw)
	}
	doc = decodeDoc(t, raw)
	if doc.State != JobDone || !doc.Cached || doc.Upgrade != "" {
		t.Fatalf("second auto sweep = state=%s cached=%v upgrade=%q; want cached exact, no upgrade",
			doc.State, doc.Cached, doc.Upgrade)
	}
	var cachedPts []ringmesh.SweepPoint
	mustUnmarshal(t, doc.Points, &cachedPts)
	for _, p := range cachedPts {
		if p.Result.Fidelity != "" {
			t.Fatalf("second sweep point %d fidelity = %q; want cached exact", p.Nodes, p.Result.Fidelity)
		}
	}
}

// TestAutoBatch mixes an explicit-analytic entry with a batch-level
// auto entry: the batch is answered inline, only the auto entry is
// upgraded to exact, and the repeat batch serves that entry from the
// cache and estimates the analytic entry afresh.
func TestAutoBatch(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	acfg := testConfig()
	acfg.Fidelity = "analytic"
	xcfg := testConfig()
	xcfg.Seed = 43
	req := batchRequest{
		Runs: []batchRunRequest{
			{Config: acfg, Options: testOptions()},
			{Config: xcfg, Options: testOptions()},
		},
		Fidelity: "auto",
	}

	resp, raw := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto batch POST = %d: %s", resp.StatusCode, raw)
	}
	doc := decodeDoc(t, raw)
	if doc.State != JobDone || doc.Upgrade == "" {
		t.Fatalf("auto batch = state=%s upgrade=%q; want done inline with upgrade", doc.State, doc.Upgrade)
	}
	if len(doc.Items) != 2 {
		t.Fatalf("auto batch items = %d; want 2", len(doc.Items))
	}
	for i, it := range doc.Items {
		if it.Result == nil || it.Result.Fidelity != "analytic" || it.Result.ErrorBound == nil {
			t.Fatalf("batch item %d = %+v; want labeled analytic with bound", i, it)
		}
	}

	// Only the auto entry rides the upgrade batch; the explicit
	// analytic entry stays analytic.
	up := awaitJob(t, ts.URL, doc.Upgrade, false)
	if len(up.Items) != 1 || up.Items[0].Result == nil || up.Items[0].Result.Fidelity != "" {
		t.Fatalf("upgrade batch items = %+v; want 1 exact result", up.Items)
	}

	resp, raw = postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second auto batch POST = %d: %s", resp.StatusCode, raw)
	}
	doc = decodeDoc(t, raw)
	if doc.State != JobDone || doc.Cached || doc.Upgrade != "" {
		t.Fatalf("second auto batch = state=%s cached=%v upgrade=%q; want done, not wholly cached, no upgrade",
			doc.State, doc.Cached, doc.Upgrade)
	}
	if doc.Items[0].Cached || !doc.Items[1].Cached {
		t.Fatalf("second batch items cached = %v, %v; want false (estimate), true (exact)",
			doc.Items[0].Cached, doc.Items[1].Cached)
	}
	if doc.Items[0].Result.Fidelity != "analytic" || doc.Items[1].Result.Fidelity != "" {
		t.Fatalf("second batch fidelities = %q, %q; want analytic, exact",
			doc.Items[0].Result.Fidelity, doc.Items[1].Result.Fidelity)
	}
}

// TestFidelityRejectsUnknown: a made-up tier is a 400 on every
// submission endpoint.
func TestFidelityRejectsUnknown(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{
		Config: testConfig(), Options: testOptions(), Fidelity: "psychic",
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "fidelity") {
		t.Fatalf("unknown fidelity POST = %d: %s", resp.StatusCode, raw)
	}
}
