package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ringmesh"
)

// leakCheck registers a cleanup asserting the goroutine count returns
// to its pre-test baseline (plus slack for the test framework). It
// must be called BEFORE newTestServer so the assertion runs after the
// server's Drain cleanup (cleanups are LIFO).
func leakCheck(t *testing.T, slack int) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() { waitGoroutinesBelow(t, base+slack) })
}

// testJob builds a bare job of the given kind with n points, for
// tests that drive the queue or finish directly.
func testJob(id, kind string, n int) *job {
	return newJob(id, journalRecord{Kind: kind}, make([]point, n), "")
}

// queueBody is a submission of the given kind that the daemon has to
// queue: distinct seeds keep the cache from answering it inline.
func queueBody(kind string, seed uint64) (path string, body any) {
	switch kind {
	case kindSweep:
		return "/v1/sweeps", sweepRequest{Config: meshRun(0, seed), Sizes: []int{4, 9}, Options: testOptions()}
	case kindBatch:
		return "/v1/batch", batchRequest{Runs: []batchRunRequest{
			{Config: meshRun(16, seed), Options: testOptions()},
			{Config: meshRun(4, seed), Options: testOptions()},
		}}
	}
	return "/v1/runs", runRequest{Config: meshRun(16, seed), Options: testOptions()}
}

// TestQueueFIFO: with the only worker held, jobs of every kind start in
// arrival order, an arrival at the bound is shed and leaves the queue
// as it was, and once Drain begins nothing new is admitted while the
// queued jobs still run to completion.
func TestQueueFIFO(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bound  int
		arrive [][2]string // label, kind
		shed   string      // arrivals refused, in order
		order  string      // the admitted jobs, in the order they started
	}{
		{"arrival order across kinds", 8, [][2]string{
			{"r1", kindRun}, {"s1", kindSweep}, {"b1", kindBatch}, {"r2", kindRun},
		}, "", "r1 s1 b1 r2"},
		{"shed at the bound", 2, [][2]string{
			{"a", kindBatch}, {"b", kindRun}, {"c", kindRun}, {"d", kindSweep},
		}, "c d", "a b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: tc.bound})
			_, release := holdWorker(t, s, ts.URL)
			labels := map[string]string{} // job ID -> label
			var shed []string
			for i, a := range tc.arrive {
				path, body := queueBody(a[1], uint64(500+10*i))
				before := len(s.queue)
				resp, raw := postJSON(t, ts.URL+path, body)
				switch resp.StatusCode {
				case http.StatusAccepted:
					labels[decodeDoc(t, raw).ID] = a[0]
				case http.StatusServiceUnavailable:
					shed = append(shed, a[0])
					if len(s.queue) != before {
						t.Errorf("shed %s changed the depth %d -> %d", a[0], before, len(s.queue))
					}
				default:
					t.Fatalf("POST %s = %d: %s", a[0], resp.StatusCode, raw)
				}
			}

			drained := make(chan error, 1)
			go func() { drained <- s.Drain(context.Background()) }()
			for !s.drainingNow() {
				time.Sleep(time.Millisecond)
			}
			path, body := queueBody(kindRun, 599)
			if resp, raw := postJSON(t, ts.URL+path, body); resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("POST while draining = %d: %s; want 503", resp.StatusCode, raw)
			}
			release()
			if err := <-drained; err != nil {
				t.Fatalf("Drain: %v", err)
			}

			// One worker: a job starts when its queue wait ends.
			var started []string
			at := map[string]time.Time{}
			for id, label := range labels {
				j, _ := s.lookup(id)
				if v := j.view(); v.State != JobDone {
					t.Fatalf("queued job %s = %s; want done after the drain", label, v.State)
				}
				for _, sp := range j.tr.Spans() {
					if sp.Name == "queue-wait" {
						at[label] = sp.Start.Add(sp.Dur)
					}
				}
				started = append(started, label)
			}
			sort.Slice(started, func(a, b int) bool { return at[started[a]].Before(at[started[b]]) })
			if got := strings.Join(shed, " "); got != tc.shed {
				t.Errorf("shed = %q; want %q", got, tc.shed)
			}
			if got := strings.Join(started, " "); got != tc.order {
				t.Errorf("start order = %q; want %q", got, tc.order)
			}
		})
	}
}

// holdWorker occupies the worker of a one-worker server until the test
// ends or calls release: it holds a run's computation open in the
// result cache, then submits that run, so the worker that picks it up
// waits on the held computation. It returns the run's job ID.
func holdWorker(t *testing.T, s *Server, base string) (id string, release func()) {
	t.Helper()
	cfg, opt := meshRun(16, 77), testOptions()
	key, err := ringmesh.CacheKey(cfg, *opt)
	if err != nil {
		t.Fatal(err)
	}
	held, gate, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		s.cache.do(context.Background(), key, nil, func() (ringmesh.Result, error) {
			close(held)
			<-gate
			return ringmesh.Run(cfg, *opt)
		})
	}()
	<-held
	release = sync.OnceFunc(func() { close(gate); <-done })
	t.Cleanup(release)
	resp, raw := postJSON(t, base+"/v1/runs", runRequest{Config: cfg, Options: opt})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("occupier POST = %d: %s", resp.StatusCode, raw)
	}
	id = decodeDoc(t, raw).ID
	waitForRunning(t, s, id)
	return id, release
}

// sumSeries adds up every sample of a series in a scrape, whatever its
// labels — what a Prometheus sum() by name computes.
func sumSeries(t *testing.T, text, name string) float64 {
	t.Helper()
	sum := 0.0
	re := regexp.MustCompile(`(?m)^` + name + `(?:\{[^}]*\})? (\S+)$`)
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	return sum
}

// TestQueueDepthIsOneSeries: with k jobs queued, the queue depth summed
// by name reads k — the daemon exports it once, not once per label set
// and again as a total.
func TestQueueDepthIsOneSeries(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	holdWorker(t, s, ts.URL)
	const k = 3
	for i := range k {
		resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: meshRun(16, uint64(300+i)), Options: testOptions()})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %d = %d: %s", i, resp.StatusCode, raw)
		}
	}
	if got := sumSeries(t, getMetrics(t, ts.URL), "ringmeshd_queue_depth"); got != k {
		t.Fatalf("ringmeshd_queue_depth summed by name = %g; want %d", got, k)
	}
}

// TestFloodShedsAtBound is the overload scenario: with the only worker
// held and the queue full, an arrival is refused with the backpressure
// contract (503, Retry-After, a structured body), nothing queued is
// touched, and once the worker is free every admitted job completes.
func TestFloodShedsAtBound(t *testing.T) {
	leakCheck(t, 2)
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 3})
	occupier, release := holdWorker(t, s, ts.URL)

	// Distinct seeds, so the single-flight cache cannot collapse them.
	ids := []string{occupier}
	for i := range 3 {
		resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: meshRun(16, uint64(1000+i)), Options: testOptions()})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %d = %d: %s", i, resp.StatusCode, raw)
		}
		ids = append(ids, decodeDoc(t, raw).ID)
	}

	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: meshRun(16, 1003), Options: testOptions()})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST at the bound = %d: %s; want 503", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("shed 503 Retry-After = %q; want >= 1s", ra)
	}
	var body map[string]any
	mustUnmarshal(t, raw, &body)
	if ms, _ := body["retry_after_ms"].(float64); len(body) != 2 || body["error"] == "" || ms < 1000 {
		t.Fatalf("shed body = %s; want exactly error and retry_after_ms >= 1000", raw)
	}

	mtext := getMetrics(t, ts.URL)
	for _, want := range []string{"ringmeshd_admit_total 4", "ringmeshd_shed_total 1", "ringmeshd_queue_depth 3"} {
		if !regexp.MustCompile(`(?m)^` + want + `$`).MatchString(mtext) {
			t.Errorf("metrics missing %q", want)
		}
	}

	release()
	for _, id := range ids {
		if d := awaitJob(t, ts.URL, id, false); d.State != JobDone {
			t.Errorf("admitted job %s = %s; want done", id, d.State)
		}
	}
}

// TestShedLeavesNoTrace: an arrival shed at the bound is refused before
// it is journaled or numbered. With the worker held and the one queue
// slot taken, the third POST gets 503, the journal holds no record for
// it, and the next admitted job takes the sequence number it would have
// burned.
func TestShedLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, JournalDir: dir})
	occupier, release := holdWorker(t, s, ts.URL)
	path, body := queueBody(kindRun, 700)
	resp, raw := postJSON(t, ts.URL+path, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued POST = %d: %s", resp.StatusCode, raw)
	}
	queued := decodeDoc(t, raw).ID
	path, body = queueBody(kindRun, 701)
	if resp, raw := postJSON(t, ts.URL+path, body); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST at the bound = %d: %s; want 503", resp.StatusCode, raw)
	}

	wal, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range bytes.Split(bytes.TrimSpace(wal), []byte("\n")) {
		rec, err := decodeRecord(line)
		if err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		lines = append(lines, rec.Op+" "+rec.ID)
	}
	want := fmt.Sprintf("accepted %s,accepted %s", occupier, queued)
	if got := strings.Join(lines, ","); got != want {
		t.Errorf("journal after the shed holds %s; want %s", got, want)
	}

	release()
	awaitJob(t, ts.URL, queued, false)
	path, body = queueBody(kindRun, 702)
	resp, raw = postJSON(t, ts.URL+path, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST after the queue emptied = %d: %s", resp.StatusCode, raw)
	}
	seq := func(id string) int {
		n, err := strconv.Atoi(strings.TrimPrefix(id, s.idPrefix))
		if err != nil {
			t.Fatalf("ID %s is not the boot prefix %s plus a sequence number", id, s.idPrefix)
		}
		return n
	}
	if got, want := seq(decodeDoc(t, raw).ID), seq(queued)+1; got != want {
		t.Errorf("next admitted job is number %d; want %d, the number the shed arrival never took", got, want)
	}
}

// TestClassFieldIgnored: older clients send a priority class; every
// submission body still accepts it, and the job is queued and
// documented like any other.
func TestClassFieldIgnored(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for path, body := range map[string]any{
		"/v1/runs":   runRequest{Config: meshRun(16, 400), Options: testOptions(), Class: "background"},
		"/v1/sweeps": sweepRequest{Config: meshRun(0, 401), Sizes: []int{4}, Options: testOptions(), Class: "background"},
		"/v1/batch": batchRequest{Runs: []batchRunRequest{{Config: meshRun(16, 402), Options: testOptions()}},
			Class: "background"},
	} {
		resp, raw := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %s with a class = %d: %s; want 202", path, resp.StatusCode, raw)
		}
		if bytes.Contains(raw, []byte(`"class"`)) {
			t.Errorf("POST %s answered with a class: %s", path, raw)
		}
		awaitJob(t, ts.URL, decodeDoc(t, raw).ID, false)
	}
}

// TestDeadlineExpiredInQueueSkipsWorker: a queued job whose deadline
// passes before a worker frees up is terminated with kind "deadline"
// and never simulates.
func TestDeadlineExpiredInQueueSkipsWorker(t *testing.T) {
	leakCheck(t, 2)
	s, ts := newTestServer(t, Options{Workers: 1})

	long := &ringmesh.RunOptions{WarmupCycles: 500_000_000, BatchCycles: 1000, Batches: 2}
	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: testConfig(), Options: long})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("occupier POST = %d: %s", resp.StatusCode, raw)
	}
	waitForRunning(t, s, decodeDoc(t, raw).ID)

	cfg := testConfig()
	cfg.Seed = 11
	resp, raw = postJSON(t, ts.URL+"/v1/runs",
		runRequest{Config: cfg, Options: testOptions(), DeadlineMS: 30})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("deadline POST = %d: %s", resp.StatusCode, raw)
	}
	id := decodeDoc(t, raw).ID
	time.Sleep(50 * time.Millisecond) // let the deadline lapse in queue

	// Free the worker; it must discard the expired job, not run it.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v; want deadline exceeded", err)
	}
	d := awaitJob(t, ts.URL, id, true)
	if d.State != JobFailed || d.Error == nil || d.Error.Kind != "deadline" {
		t.Fatalf("expired job = %s %+v; want failed/deadline", d.State, d.Error)
	}
	if !strings.Contains(d.Error.Message, "before execution") {
		t.Fatalf("expired job message = %q; want the in-queue termination, not a run timeout", d.Error.Message)
	}
	if !strings.Contains(getMetrics(t, ts.URL), "ringmeshd_deadline_expired_total 1") {
		t.Error("metrics missing deadline_expired counter")
	}
}

// meshRun is testConfig at another size and seed.
func meshRun(nodes int, seed uint64) ringmesh.Config {
	cfg := testConfig()
	cfg.Nodes, cfg.Seed = nodes, seed
	return cfg
}

// largeRun is the schedule of the 11x11 training runs: the largest size
// of the paper's figures, tens of times the cost of a 2x2 testOptions
// run.
var largeRun = &ringmesh.RunOptions{WarmupCycles: 500, BatchCycles: 500, Batches: 3}

// simCost times one direct simulation of cfg, outside any daemon.
func simCost(t *testing.T, cfg ringmesh.Config, opt *ringmesh.RunOptions) time.Duration {
	t.Helper()
	start := time.Now()
	if _, err := ringmesh.Run(cfg, *opt); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// trainOnLargeRuns gives the daemon at base a history of eight
// uncached 11x11 runs, one after another — enough for a p95 of run
// durations to look trustworthy — and returns the direct cost of one
// such run.
func trainOnLargeRuns(t *testing.T, base string) time.Duration {
	t.Helper()
	for i := range 8 {
		resp, raw := postJSON(t, base+"/v1/runs", runRequest{Config: meshRun(121, uint64(100+i)), Options: largeRun})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("training POST %d = %d: %s", i, resp.StatusCode, raw)
		}
		awaitJob(t, base, decodeDoc(t, raw).ID, false)
	}
	return simCost(t, meshRun(121, 99), largeRun)
}

// feasibleDeadline is a budget a third of one training run: at least
// three times the cost of a 2x2 testOptions run (the test fails if this
// machine does not separate the two), yet below every run the daemon
// has seen so far.
func feasibleDeadline(t *testing.T, large time.Duration) time.Duration {
	t.Helper()
	d, small := large/3, simCost(t, meshRun(4, 98), testOptions())
	if 3*small > d {
		t.Fatalf("2x2 run costs %s, 11x11 run %s: the schedules no longer separate them", small, large)
	}
	t.Logf("deadline %s: 2x2 run %s, 11x11 run %s", d, small, large)
	return d
}

// TestDeadlineFeasibleAfterLargerRuns: a daemon that has only run large
// meshes still admits a small run whose deadline it can meet, and
// finishes it: the large runs' durations say nothing about its cost.
func TestDeadlineFeasibleAfterLargerRuns(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	deadline := feasibleDeadline(t, trainOnLargeRuns(t, ts.URL))

	resp, raw := postJSON(t, ts.URL+"/v1/runs",
		runRequest{Config: meshRun(4, 999), Options: testOptions(), DeadlineMS: deadline.Milliseconds()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("2x2 run with a %s deadline = %d: %s; want 202", deadline, resp.StatusCode, raw)
	}
	if d := awaitJob(t, ts.URL, decodeDoc(t, raw).ID, true); d.State != JobDone {
		t.Fatalf("2x2 run with a %s deadline = %s %+v; want done", deadline, d.State, d.Error)
	}
}

// TestDeadlineLapsesMidRun: a deadline well below the run's cost is
// enforced by the run's context. The job fails with kind deadline, its
// point is not cached, and the worker is free for the next job.
func TestDeadlineLapsesMidRun(t *testing.T) {
	leakCheck(t, 2)
	s, ts := newTestServer(t, Options{Workers: 1})
	cfg := meshRun(121, 7)
	deadline := max(10*time.Millisecond, simCost(t, meshRun(121, 8), largeRun)/5)

	resp, raw := postJSON(t, ts.URL+"/v1/runs",
		runRequest{Config: cfg, Options: largeRun, DeadlineMS: deadline.Milliseconds()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("deadline POST = %d: %s", resp.StatusCode, raw)
	}
	d := awaitJob(t, ts.URL, decodeDoc(t, raw).ID, true)
	if d.State != JobFailed || d.Error == nil || d.Error.Kind != "deadline" || d.Error.Status != http.StatusGatewayTimeout {
		t.Fatalf("run past its %s deadline = %s %+v; want failed/deadline/504", deadline, d.State, d.Error)
	}
	if strings.Contains(d.Error.Message, "before execution") {
		t.Fatalf("deadline lapsed in queue (%q); want it to lapse mid-run", d.Error.Message)
	}

	misses := s.cache.misses.Value()
	resp, raw = postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg, Options: largeRun})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmission = %d: %s; want 202 (nothing cached)", resp.StatusCode, raw)
	}
	awaitJob(t, ts.URL, decodeDoc(t, raw).ID, false)
	if got := s.cache.misses.Value() - misses; got != 1 {
		t.Fatalf("resubmission cost %d cache misses; want 1 simulation", got)
	}
}

func TestDeadlineHeaderParsedAndBodyWins(t *testing.T) {
	r, _ := http.NewRequest(http.MethodPost, "/v1/runs", nil)
	r.Header.Set(deadlineHeader, "10s")
	dl, err := submitDeadline(r, 0)
	if err != nil || dl.IsZero() {
		t.Fatalf("header deadline = %v, %v; want set", dl, err)
	}
	if until := time.Until(dl); until < 9*time.Second || until > 11*time.Second {
		t.Fatalf("header deadline %s out; want ~10s", until)
	}
	dl, err = submitDeadline(r, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if until := time.Until(dl); until < 59*time.Second {
		t.Fatalf("body deadline %s; want body's 60s to win over header's 10s", until)
	}
	r.Header.Set(deadlineHeader, "not-a-duration")
	if _, err := submitDeadline(r, 0); err == nil {
		t.Fatal("bad header accepted")
	}
	if _, err := submitDeadline(r, -5); err == nil {
		t.Fatal("negative deadline_ms accepted")
	}
}

func TestBatchEndpoint(t *testing.T) {
	leakCheck(t, 2)
	_, ts := newTestServer(t, Options{})

	var runs []batchRunRequest
	for i := range 3 {
		cfg := testConfig()
		cfg.Seed = uint64(200 + i%2) // entries 0 and 2 identical: cache shares them
		runs = append(runs, batchRunRequest{Config: cfg, Options: testOptions()})
	}
	resp, raw := postJSON(t, ts.URL+"/v1/batch", batchRequest{Runs: runs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch POST = %d: %s", resp.StatusCode, raw)
	}
	doc := decodeDoc(t, raw)
	if doc.Kind != kindBatch {
		t.Fatalf("batch doc kind=%s; want batch", doc.Kind)
	}
	final := awaitJob(t, ts.URL, doc.ID, false)
	if len(final.Items) != 3 {
		t.Fatalf("batch items = %d; want 3", len(final.Items))
	}
	for i, it := range final.Items {
		if it.Error != nil || it.Result == nil {
			t.Fatalf("item %d = %+v; want a result", i, it)
		}
		if it.Topology == "" {
			t.Errorf("item %d missing topology", i)
		}
	}
	if final.Progress != 1 {
		t.Fatalf("batch progress = %g; want 1", final.Progress)
	}

	// Validation errors.
	resp, raw = postJSON(t, ts.URL+"/v1/batch", batchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch POST = %d: %s", resp.StatusCode, raw)
	}
	bad := testConfig()
	bad.Nodes = 0
	resp, raw = postJSON(t, ts.URL+"/v1/batch",
		batchRequest{Runs: []batchRunRequest{{Config: bad}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid entry POST = %d: %s", resp.StatusCode, raw)
	}
}

func TestFinishBatchClassifiesWholesaleFailure(t *testing.T) {
	stall := fmt.Errorf("stalled: %w", ringmesh.ErrStalled)
	j := testJob("b1", kindBatch, 2)
	j.finish([]outcome{{err: stall}, {err: errors.New("boom")}}, nil)
	v := j.view()
	if v.State != JobFailed || v.Error.Kind != "stall" || v.Error.Status != 422 {
		t.Fatalf("wholesale failure = %+v; want first item's classification", v.Error)
	}

	j2 := testJob("b2", kindBatch, 2)
	j2.finish([]outcome{{}, {err: errors.New("boom")}}, nil)
	if v := j2.view(); v.State != JobDone || !v.Degraded {
		t.Fatalf("partial batch view = state %s degraded %v; want done/degraded", v.State, v.Degraded)
	}
}

// TestReadyReportsQueueDepths: /readyz carries the queued job count
// while ready.
func TestReadyReportsQueueDepths(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d; want 200", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body) != 2 || body["status"] != "ready" || body["queued"] != 0.0 {
		t.Fatalf("readyz = %v; want exactly status ready and queued 0", body)
	}
}

// waitForRunning spins until the job leaves the queue (a worker picked
// it up), so tests can saturate the pool deterministically.
func waitForRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, ok := s.lookup(id)
		if ok {
			j.mu.Lock()
			st := j.state
			j.mu.Unlock()
			if st == JobRunning {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started running", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func mustUnmarshal(t *testing.T, raw []byte, into any) {
	t.Helper()
	if err := json.Unmarshal(raw, into); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
}
