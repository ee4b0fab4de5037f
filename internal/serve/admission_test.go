package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"ringmesh"
	"ringmesh/internal/metrics"
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

// testAdmitter builds an admitter with the given total bound and
// default class weights, on a throwaway registry.
func testAdmitter(total int) *admitter {
	return newAdmitter(total, [numClasses]int{}, &metrics.Registry{})
}

// testJob builds a bare job of the given kind with n points, for
// tests that drive the queues or finish directly.
func testJob(id, kind string, n int) *job {
	return newJob(id, journalRecord{Kind: kind}, make([]point, n), "")
}

func classedJob(id string, c class) *job {
	j := testJob(id, kindRun, 1)
	j.class = c
	return j
}

func TestAdmitterPriorityOrder(t *testing.T) {
	a := testAdmitter(16)
	// Queue background and batch first, interactive last: the scheduler
	// must still hand out interactive first.
	for _, j := range []*job{
		classedJob("bg1", classBackground),
		classedJob("ba1", classBatch),
		classedJob("in1", classInteractive),
		classedJob("in2", classInteractive),
	} {
		if _, err := a.enqueue(j); err != nil {
			t.Fatalf("enqueue %s: %v", j.id, err)
		}
	}
	var got []string
	for range 4 {
		j, ok := a.next()
		if !ok {
			t.Fatal("next = closed with jobs queued")
		}
		got = append(got, j.id)
	}
	want := "in1 in2 ba1 bg1"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("drain order = %q; want %q", s, want)
	}
}

// TestAdmitterDRRSharesUnderSaturation: with every class continuously
// backlogged, one credit-refill cycle serves weight-many jobs of each
// class — bulk is throttled, not starved.
func TestAdmitterDRRSharesUnderSaturation(t *testing.T) {
	a := newAdmitter(64, [numClasses]int{2, 1, 1}, &metrics.Registry{})
	for i := range 8 {
		for c := class(0); c < numClasses; c++ {
			if _, err := a.enqueue(classedJob(fmt.Sprintf("%s%d", c, i), c)); err != nil {
				t.Fatalf("enqueue: %v", err)
			}
		}
	}
	var got []string
	for range 8 {
		j, ok := a.next()
		if !ok {
			t.Fatal("next = closed with jobs queued")
		}
		got = append(got, j.id)
	}
	// Two full cycles of weights 2/1/1: interactive ×2, batch, background.
	want := "interactive0 interactive1 batch0 background0 interactive2 interactive3 batch1 background1"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("DRR order = %q; want %q", s, want)
	}
}

func TestAdmitterEvictsLowestClassFirst(t *testing.T) {
	a := testAdmitter(2)
	bg := classedJob("bg", classBackground)
	ba := classedJob("ba", classBatch)
	for _, j := range []*job{bg, ba} {
		if _, err := a.enqueue(j); err != nil {
			t.Fatalf("enqueue %s: %v", j.id, err)
		}
	}
	// Interactive arrival at the full bound: background (lowest) is the
	// victim, not batch.
	victim, err := a.enqueue(classedJob("in", classInteractive))
	if err != nil {
		t.Fatalf("interactive at full queue: %v", err)
	}
	if victim == nil || victim.id != "bg" {
		t.Fatalf("victim = %+v; want bg", victim)
	}
	// A second interactive evicts batch (now the lowest queued below it).
	victim, err = a.enqueue(classedJob("in2", classInteractive))
	if err != nil {
		t.Fatalf("second interactive: %v", err)
	}
	if victim == nil || victim.id != "ba" {
		t.Fatalf("victim = %+v; want ba", victim)
	}
	// A third has nothing below it left: shed itself.
	var se *shedError
	if _, err := a.enqueue(classedJob("in3", classInteractive)); !errors.As(err, &se) {
		t.Fatalf("interactive with no lower class queued = %v; want shedError", err)
	}
	if se.class != classInteractive {
		t.Fatalf("shed class = %s; want interactive", se.class)
	}
}

func TestAdmitterForceEnqueueBypassesBounds(t *testing.T) {
	a := testAdmitter(1)
	if _, err := a.enqueue(classedJob("a", classInteractive)); err != nil {
		t.Fatal(err)
	}
	// Replay path: past every bound, never shed.
	a.forceEnqueue(classedJob("replayed", classInteractive))
	if d := a.depth(); d != 2 {
		t.Fatalf("depth after forceEnqueue = %d; want 2", d)
	}
}

func TestParseClass(t *testing.T) {
	for _, tc := range []struct {
		in   string
		def  class
		want class
		ok   bool
	}{
		{"", classInteractive, classInteractive, true},
		{"", classBatch, classBatch, true},
		{"interactive", classBatch, classInteractive, true},
		{"batch", classInteractive, classBatch, true},
		{"background", classInteractive, classBackground, true},
		{"urgent", classInteractive, 0, false},
	} {
		got, err := parseClass(tc.in, tc.def)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("parseClass(%q) = %v, %v; want %v ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestFloodInteractiveSurvives is the acceptance scenario: one busy
// worker, a background flood filling the queue, and an interactive
// submission that must still admit (evicting background) while further
// background work is shed with the Retry-After contract.
func TestFloodInteractiveSurvives(t *testing.T) {
	leakCheck(t, 2)
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 3})

	// Occupy the only worker far beyond the test's lifetime.
	long := &ringmesh.RunOptions{WarmupCycles: 500_000_000, BatchCycles: 1000, Batches: 1}
	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: testConfig(), Options: long})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("occupier POST = %d: %s", resp.StatusCode, raw)
	}
	waitForRunning(t, s, decodeDoc(t, raw).ID)

	// Background flood fills every queue slot (distinct seeds so the
	// single-flight cache cannot collapse them).
	var bgIDs []string
	for i := range 3 {
		cfg := testConfig()
		cfg.Seed = uint64(1000 + i)
		resp, raw := postJSON(t, ts.URL+"/v1/runs",
			runRequest{Config: cfg, Options: long, Class: "background"})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("background %d POST = %d: %s", i, resp.StatusCode, raw)
		}
		bgIDs = append(bgIDs, decodeDoc(t, raw).ID)
	}

	// Interactive still admits: the newest background job is evicted.
	cfg := testConfig()
	cfg.Seed = 7
	resp, raw = postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg, Options: long})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("interactive POST under flood = %d: %s; want 202", resp.StatusCode, raw)
	}
	evicted := awaitJob(t, ts.URL, bgIDs[len(bgIDs)-1], true)
	if evicted.State != JobFailed || evicted.Error == nil || evicted.Error.Kind != "shed" {
		t.Fatalf("evicted background job = %s %+v; want failed/shed", evicted.State, evicted.Error)
	}

	// Another background submission that explicitly demands exact
	// simulation has nothing below it: shed with the documented
	// backpressure contract (never silently downgraded).
	cfg.Seed = 8
	resp, raw = postJSON(t, ts.URL+"/v1/runs",
		runRequest{Config: cfg, Options: long, Class: "background", Fidelity: "simulate"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("background POST at saturation = %d: %s; want 503", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("shed 503 Retry-After = %q; want >= 1s", ra)
	}
	var eb errorBody
	mustUnmarshal(t, raw, &eb)
	if eb.Class != "background" || eb.RetryAfterMS < 1000 || eb.Error == "" {
		t.Fatalf("shed body = %+v; want class=background, retry_after_ms >= 1000", eb)
	}

	// A fidelity-agnostic background submission degrades instead: an
	// analytic-labeled answer with its error bound, not a 503. The
	// upgrade job cannot admit under the same pressure, so no ID.
	cfg.Seed = 9
	resp, raw = postJSON(t, ts.URL+"/v1/runs",
		runRequest{Config: cfg, Options: long, Class: "background"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("agnostic background POST at saturation = %d: %s; want degraded 200", resp.StatusCode, raw)
	}
	deg := decodeDoc(t, raw)
	if deg.State != JobDone || !deg.Degraded || deg.Result == nil {
		t.Fatalf("degraded doc = %+v; want done/degraded with a result", deg)
	}
	var dres ringmesh.Result
	mustUnmarshal(t, deg.Result, &dres)
	if dres.Fidelity != "analytic" || dres.ErrorBound == nil {
		t.Fatalf("degraded result fidelity = %q bound = %v; want labeled analytic with a bound",
			dres.Fidelity, dres.ErrorBound)
	}

	// The per-class and fidelity counters prove the story on /metrics:
	// background sheds are the evicted job, the explicit-simulate
	// rejection, the degraded job's failed admission and its upgrade
	// attempt; exactly one answer was served at degraded fidelity.
	mtext := getMetrics(t, ts.URL)
	for _, want := range []string{
		`ringmeshd_admit_total{class="interactive"} 2`,
		`ringmeshd_admit_total{class="background"} 3`,
		`ringmeshd_shed_total{class="background"} 4`,
		`ringmeshd_queue_depth{class="interactive"} 1`,
		`ringmeshd_fidelity_degraded_total 1`,
		`ringmeshd_fidelity_analytic_answers_total 1`,
		`ringmeshd_fidelity_upgrades_total 0`,
	} {
		if !strings.Contains(mtext, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Cancel the flood so cleanup doesn't wait on 500M-cycle runs.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v; want deadline exceeded", err)
	}
}

// TestDeadlineExpiredInQueueSkipsWorker: a queued job whose deadline
// passes before a worker frees up is terminated with kind "deadline"
// and never simulates.
func TestDeadlineExpiredInQueueSkipsWorker(t *testing.T) {
	leakCheck(t, 2)
	s, ts := newTestServer(t, Options{Workers: 1})

	long := &ringmesh.RunOptions{WarmupCycles: 500_000_000, BatchCycles: 1000, Batches: 1}
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
	if !strings.Contains(getMetrics(t, ts.URL), `ringmeshd_deadline_expired_total{class="interactive"} 1`) {
		t.Error("metrics missing deadline_expired counter")
	}
}

// TestDeadlineInfeasibleRejectedAtAdmission: once the run-duration
// histogram has enough observations, a deadline the telemetry says
// cannot be met is refused with 504 before touching the queue.
func TestDeadlineInfeasibleRejectedAtAdmission(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// Train the mesh family histogram past costMinObs completed runs.
	for i := range costMinObs {
		cfg := testConfig()
		cfg.Seed = uint64(100 + i)
		resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg, Options: testOptions()})
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("training POST %d = %d: %s", i, resp.StatusCode, raw)
		}
		awaitJob(t, ts.URL, decodeDoc(t, raw).ID, false)
	}

	cfg := testConfig()
	cfg.Seed = 999 // uncached, so the submission cannot short-circuit
	resp, raw := postJSON(t, ts.URL+"/v1/runs",
		runRequest{Config: cfg, Options: testOptions(), DeadlineMS: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("infeasible deadline POST = %d: %s; want 504", resp.StatusCode, raw)
	}
	var eb errorBody
	mustUnmarshal(t, raw, &eb)
	if !strings.Contains(eb.Error, "deadline infeasible") {
		t.Fatalf("infeasible body = %+v", eb)
	}
	if !strings.Contains(getMetrics(t, ts.URL), `ringmeshd_deadline_rejected_total{class="interactive"} 1`) {
		t.Error("metrics missing deadline_rejected counter")
	}

	// A cached config bypasses the feasibility check entirely: the
	// answer is free.
	cached := testConfig()
	cached.Seed = 100
	resp, raw = postJSON(t, ts.URL+"/v1/runs",
		runRequest{Config: cached, Options: testOptions(), DeadlineMS: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached POST with tiny deadline = %d: %s; want 200", resp.StatusCode, raw)
	}
}

// TestDeadlineCostIsPerPoint: the feasibility estimate prices a job as
// the sum of its points, each at the p95 of one computed point. Pricing
// a four-entry batch at four whole-batch durations (units x the p95 of
// job durations, which for a batch are whole batches) refused any
// deadline under ~4x the true cost.
func TestDeadlineCostIsPerPoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	seed := uint64(5000)
	batch := func(deadlineMS int64) batchRequest {
		req := batchRequest{DeadlineMS: deadlineMS}
		for range 4 {
			cfg := testConfig()
			cfg.Seed = seed
			seed++
			req.Runs = append(req.Runs, batchRunRequest{Config: cfg,
				Options: &ringmesh.RunOptions{WarmupCycles: 1000, BatchCycles: 2000, Batches: 3}})
		}
		return req
	}
	// Train past costMinObs batches, timing each from the outside (the
	// poll cadence only lengthens t, which loosens the deadline below).
	var t95 time.Duration
	for i := range costMinObs {
		start := time.Now()
		resp, raw := postJSON(t, ts.URL+"/v1/batch", batch(0))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("training batch %d = %d: %s", i, resp.StatusCode, raw)
		}
		awaitJob(t, ts.URL, decodeDoc(t, raw).ID, false)
		t95 = max(t95, time.Since(start))
	}

	resp, raw := postJSON(t, ts.URL+"/v1/batch", batch(2*t95.Milliseconds()))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch with a deadline of twice a batch's duration (%s) = %d: %s; want 202",
			2*t95, resp.StatusCode, raw)
	}
	awaitJob(t, ts.URL, decodeDoc(t, raw).ID, false)
}

func TestDeadlineHeaderParsedAndBodyWins(t *testing.T) {
	r, _ := http.NewRequest(http.MethodPost, "/v1/runs", nil)
	r.Header.Set(deadlineHeader, "10s")
	_, dl, err := submitMeta(r, "", 0, classInteractive)
	if err != nil || dl.IsZero() {
		t.Fatalf("header deadline = %v, %v; want set", dl, err)
	}
	if until := time.Until(dl); until < 9*time.Second || until > 11*time.Second {
		t.Fatalf("header deadline %s out; want ~10s", until)
	}
	_, dl, err = submitMeta(r, "", 60_000, classInteractive)
	if err != nil {
		t.Fatal(err)
	}
	if until := time.Until(dl); until < 59*time.Second {
		t.Fatalf("body deadline %s; want body's 60s to win over header's 10s", until)
	}
	r.Header.Set(deadlineHeader, "not-a-duration")
	if _, _, err := submitMeta(r, "", 0, classInteractive); err == nil {
		t.Fatal("bad header accepted")
	}
	if _, _, err := submitMeta(r, "", -5, classInteractive); err == nil {
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
	if doc.Kind != kindBatch || doc.Class != "batch" {
		t.Fatalf("batch doc kind=%s class=%s; want batch/batch", doc.Kind, doc.Class)
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

	// Class override and validation errors.
	resp, raw = postJSON(t, ts.URL+"/v1/batch", batchRequest{Runs: runs, Class: "urgent"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad class POST = %d: %s", resp.StatusCode, raw)
	}
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
	if failed := j.finish([]outcome{{err: stall}, {err: errors.New("boom")}}, nil); !failed {
		t.Fatal("all-failed batch reported success")
	}
	v := j.view()
	if v.State != JobFailed || v.Error.Kind != "stall" || v.Error.Status != 422 {
		t.Fatalf("wholesale failure = %+v; want first item's classification", v.Error)
	}

	j2 := testJob("b2", kindBatch, 2)
	if failed := j2.finish([]outcome{{}, {err: errors.New("boom")}}, nil); failed {
		t.Fatal("partial batch failed; want degraded success")
	}
	if v := j2.view(); v.State != JobDone || !v.Degraded {
		t.Fatalf("partial batch view = state %s degraded %v; want done/degraded", v.State, v.Degraded)
	}
}

func TestRateLimitCarriesRetryAfter(t *testing.T) {
	_, ts := newTestServer(t, Options{Rate: 0.5, Burst: 1})

	req := runRequest{Config: testConfig(), Options: testOptions()}
	resp, raw := postJSON(t, ts.URL+"/v1/runs", req)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("first POST = %d: %s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts.URL+"/v1/runs", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second POST = %d: %s; want 429", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("429 Retry-After = %q; want \"2\" (one token at 0.5/s)", ra)
	}
	var eb errorBody
	mustUnmarshal(t, raw, &eb)
	if eb.RetryAfterMS != 2000 {
		t.Fatalf("429 retry_after_ms = %d; want 2000", eb.RetryAfterMS)
	}
}

// TestReadyReportsQueueDepths: /readyz carries per-class depths while
// ready.
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
	var body readyBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ready" {
		t.Fatalf("readyz status = %q", body.Status)
	}
	for _, c := range []string{"interactive", "batch", "background"} {
		if _, ok := body.Queues[c]; !ok {
			t.Errorf("readyz missing queue depth for %q: %+v", c, body.Queues)
		}
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
