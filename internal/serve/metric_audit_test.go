package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"ringmesh"
)

var (
	// auditRow matches one row of README's "Daemon metrics" table.
	auditRow = regexp.MustCompile("(?m)^\\| `((?:ringmeshd|go)_[a-z_]+)` \\|")
	// typeLine matches the exposition's one line per distinct series.
	typeLine = regexp.MustCompile(`(?m)^# TYPE (\S+) `)
)

// moved reports whether some sample of the series (any label set; the
// _count of a histogram) reads non-zero in a scrape.
func moved(text, name string) bool {
	re := regexp.MustCompile(`(?m)^` + name + `(?:_count)?(?:\{[^}]*\})? (\S+)$`)
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		if m[1] != "0" {
			return true
		}
	}
	return false
}

// TestMetricAudit holds /metrics and README's "Daemon metrics" table
// to each other: a scripted session (journal replay, miss, hit,
// eviction, disk hit, analytic, auto + upgrade; a shed under a full
// queue; a coordinator with one dead worker) exports every series the
// daemon has, and the test fails on an exported series without a table
// row — add the row, with the question the series answers, or delete
// the series — and on a row that is never exported. Series the session
// is built to move must also have moved.
func TestMetricAudit(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	table := map[string]bool{}
	for _, m := range auditRow.FindAllStringSubmatch(string(readme), -1) {
		if table[m[1]] {
			t.Errorf("README lists %s twice", m[1])
		}
		table[m[1]] = true
	}
	exported := map[string]bool{}
	scrape := func(base string, mustMove ...string) {
		t.Helper()
		text := getMetrics(t, base)
		for _, m := range typeLine.FindAllStringSubmatch(text, -1) {
			exported[m[1]] = true
		}
		for _, name := range mustMove {
			if !moved(text, name) {
				t.Errorf("%s did not move in the session built to move it", name)
			}
		}
	}
	// run submits one run and follows it to its terminal document.
	run := func(base string, cfg ringmesh.Config, fidelity string) jobDoc {
		t.Helper()
		return decodeDoc(t, submitFinal(t, base, "/v1/runs",
			runRequest{Config: cfg, Options: testOptions(), Fidelity: fidelity}))
	}
	seeded := func(seed uint64) ringmesh.Config {
		cfg := testConfig()
		cfg.Seed = seed
		return cfg
	}

	// A simulating daemon over both durable tiers, a one-entry LRU and
	// the journal a killed daemon left behind.
	cacheDir, journalDir := t.TempDir(), t.TempDir()
	left, opt := seeded(99), *testOptions()
	jl := openTestJournal(t, journalDir)
	jl.append(journalRecord{Op: opAccepted, ID: "j000001", Kind: kindRun, Class: "interactive", Config: &left, Options: &opt})
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{CacheEntries: 1, CacheDir: cacheDir, JournalDir: journalDir})
	awaitJob(t, ts.URL, "j000001", false) // replayed
	if run(ts.URL, seeded(1), "").Cached {
		t.Error("first run of a config answered from cache")
	}
	if !run(ts.URL, seeded(1), "").Cached {
		t.Error("identical run not answered from the memory tier")
	}
	run(ts.URL, seeded(2), "") // evicts seed 1 from the one-entry LRU
	if !run(ts.URL, seeded(1), "").Cached {
		t.Error("evicted run not answered from the disk tier")
	}
	run(ts.URL, seeded(3), "analytic")
	if up := run(ts.URL, seeded(4), "auto").Upgrade; up == "" {
		t.Error("auto run carries no upgrade job")
	} else {
		awaitJob(t, ts.URL, up, false)
	}
	scrape(ts.URL,
		"ringmeshd_journal_replayed_total", "ringmeshd_journal_appends_total",
		"ringmeshd_jobs_accepted_total", "ringmeshd_jobs_completed_total", "ringmeshd_admit_total",
		"ringmeshd_cache_hits_total", "ringmeshd_cache_misses_total", "ringmeshd_cache_evictions_total",
		"ringmeshd_cache_entries", "ringmeshd_disk_cache_hits_total", "ringmeshd_disk_cache_misses_total",
		"ringmeshd_disk_cache_writes_total", "ringmeshd_fidelity_requests_total",
		"ringmeshd_fidelity_analytic_answers_total", "ringmeshd_fidelity_upgrades_total",
		"ringmeshd_fidelity_answer_seconds", "ringmeshd_job_queue_wait_seconds",
		"ringmeshd_job_run_seconds", "ringmeshd_point_run_seconds",
		"go_goroutines", "go_heap_alloc_bytes")

	// One busy worker and a one-slot queue: the second background run
	// that insists on simulation is shed.
	fs, fts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	long := &ringmesh.RunOptions{WarmupCycles: 500_000_000, BatchCycles: 1000, Batches: 1}
	resp, raw := postJSON(t, fts.URL+"/v1/runs", runRequest{Config: seeded(1), Options: long})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("occupier POST = %d: %s", resp.StatusCode, raw)
	}
	occupier := decodeDoc(t, raw).ID
	waitForRunning(t, fs, occupier)
	for i, want := range []int{http.StatusAccepted, http.StatusServiceUnavailable} {
		resp, raw := postJSON(t, fts.URL+"/v1/runs",
			runRequest{Config: seeded(uint64(10 + i)), Options: long, Class: "background", Fidelity: "simulate"})
		if resp.StatusCode != want {
			t.Fatalf("background POST %d = %d: %s; want %d", i, resp.StatusCode, raw, want)
		}
	}
	scrape(fts.URL, "ringmeshd_shed_total", "ringmeshd_jobs_rejected_total",
		"ringmeshd_queue_depth", "ringmeshd_cache_inflight")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_ = fs.Drain(ctx) // cancels the 500M-cycle runs; the deadline error is the point
	cancel()
	awaitJob(t, fts.URL, occupier, true)
	scrape(fts.URL, "ringmeshd_jobs_failed_total")

	// A coordinator whose first worker refuses connections.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	cs, cts := newTestServer(t, Options{WorkerAddrs: []string{dead.URL, fleetStub(t, nil).URL}})
	cs.coord.backoffBase = time.Millisecond
	cs.coord.pollEvery = 2 * time.Millisecond
	for seed := uint64(1); seed <= 4; seed++ {
		run(cts.URL, seeded(seed), "")
	}
	scrape(cts.URL,
		"ringmeshd_coord_worker_dispatches_total", "ringmeshd_coord_worker_failures_total",
		"ringmeshd_coord_worker_admitted", "ringmeshd_coord_point_seconds")

	var missing, stale []string
	for name := range exported {
		if !table[name] {
			missing = append(missing, name)
		}
	}
	for name := range table {
		if !exported[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("exported on /metrics without a row in README's Daemon metrics table "+
			"(say which question each answers, or delete it):\n  %s", strings.Join(missing, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("rows in README's Daemon metrics table that no daemon exports:\n  %s", strings.Join(stale, "\n  "))
	}
}
