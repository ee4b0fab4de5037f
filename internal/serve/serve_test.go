package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ringmesh"
	"ringmesh/internal/metrics"
)

// testConfig is a small, fast mesh every e2e test simulates.
func testConfig() ringmesh.Config {
	return ringmesh.Config{
		Network:     "mesh",
		Nodes:       16,
		LineBytes:   32,
		BufferFlits: 4,
		Workload:    ringmesh.PaperWorkload(),
		Seed:        42,
	}
}

// testOptions is a short schedule so tests finish in milliseconds.
func testOptions() *ringmesh.RunOptions {
	return &ringmesh.RunOptions{WarmupCycles: 200, BatchCycles: 200, Batches: 2}
}

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	if opt.Workers == 0 {
		opt.Workers = 2
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// jobDoc mirrors JobView with the result kept raw for byte-identity
// comparisons.
type jobDoc struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	State    JobState        `json:"state"`
	Cached   bool            `json:"cached"`
	Degraded bool            `json:"degraded"`
	Upgrade  string          `json:"upgrade_job_id"`
	Progress float64         `json:"progress"`
	Result   json.RawMessage `json:"result"`
	Points   json.RawMessage `json:"points"`
	Items    []BatchItem     `json:"items"`
	Error    *JobError       `json:"error"`
}

func decodeDoc(t *testing.T, raw []byte) jobDoc {
	t.Helper()
	var d jobDoc
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("bad job document %s: %v", raw, err)
	}
	return d
}

// awaitJob polls the job until it completes, failing the test on a
// failed job unless allowFail.
func awaitJob(t *testing.T, base, id string, allowFail bool) jobDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s = %d: %s", id, resp.StatusCode, buf.String())
		}
		d := decodeDoc(t, buf.Bytes())
		switch d.State {
		case JobDone:
			return d
		case JobFailed:
			if allowFail {
				return d
			}
			t.Fatalf("job %s failed: %+v", id, d.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, d.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunSubmitAndCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Options{})

	req := runRequest{Config: testConfig(), Options: testOptions()}
	resp, raw := postJSON(t, ts.URL+"/v1/runs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST = %d: %s", resp.StatusCode, raw)
	}
	first := decodeDoc(t, raw)
	// A 202 renders the job after it was enqueued, so a worker may
	// already have picked it up: either non-terminal state is right.
	if (first.State != JobQueued && first.State != JobRunning) || first.Cached {
		t.Fatalf("first submission = %+v; want queued or running, uncached", first)
	}
	done := awaitJob(t, ts.URL, first.ID, false)
	if done.Cached || len(done.Result) == 0 {
		t.Fatalf("first completion cached=%v result=%d bytes; want fresh result", done.Cached, len(done.Result))
	}
	if done.Progress != 1 {
		t.Fatalf("finished progress = %v; want 1", done.Progress)
	}

	// The identical submission must complete synchronously from the
	// cache with a byte-identical result.
	resp, raw = postJSON(t, ts.URL+"/v1/runs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second POST = %d: %s", resp.StatusCode, raw)
	}
	second := decodeDoc(t, raw)
	if second.State != JobDone || !second.Cached {
		t.Fatalf("second submission = state %s cached %v; want done, cached", second.State, second.Cached)
	}
	if !bytes.Equal(done.Result, second.Result) {
		t.Fatalf("cached result differs:\n%s\nvs\n%s", done.Result, second.Result)
	}
	if hits := s.cache.hits.Value(); hits < 1 {
		t.Fatalf("cache hits = %d; want >= 1", hits)
	}
	if misses := s.cache.misses.Value(); misses != 1 {
		t.Fatalf("cache misses = %d; want 1", misses)
	}
}

func TestConcurrentIdenticalRunsSimulateOnce(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4})

	req := runRequest{Config: testConfig(), Options: testOptions()}
	const clients = 4
	docs := make([]jobDoc, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := postJSON(t, ts.URL+"/v1/runs", req)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("POST %d = %d: %s", i, resp.StatusCode, raw)
				return
			}
			docs[i] = decodeDoc(t, raw)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	finals := make([]jobDoc, clients)
	for i := range docs {
		finals[i] = awaitJob(t, ts.URL, docs[i].ID, false)
	}

	// Exactly one simulation ran; everyone got byte-identical results.
	if misses := s.cache.misses.Value(); misses != 1 {
		t.Fatalf("cache misses = %d; want 1 (one simulation for %d identical jobs)", misses, clients)
	}
	replayed := 0
	for i := 1; i < clients; i++ {
		if !bytes.Equal(finals[0].Result, finals[i].Result) {
			t.Fatalf("result %d differs:\n%s\nvs\n%s", i, finals[0].Result, finals[i].Result)
		}
		if finals[i].Cached {
			replayed++
		}
	}
	if total := s.cache.hits.Value() + s.cache.coalesced.Value(); total < int64(clients-1) {
		t.Fatalf("hits+coalesced = %d; want >= %d", total, clients-1)
	}
	_ = replayed // which jobs replay depends on scheduling; the counters above pin the invariant
}

func TestSubmissionValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// Invalid geometry: the model's message comes through.
	cfg := testConfig()
	cfg.Nodes = 63
	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg, Options: testOptions()})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad config POST = %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "invalid config") {
		t.Fatalf("error body %s missing config message", raw)
	}

	// Invalid schedule.
	opt := *testOptions()
	opt.Batches = 0
	resp, raw = postJSON(t, ts.URL+"/v1/runs", runRequest{Config: testConfig(), Options: &opt})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "batches") {
		t.Fatalf("bad options POST = %d: %s", resp.StatusCode, raw)
	}

	// Runs that cannot have a confidence interval — one batch, one PM —
	// are refused at submission with the model's rule, not accepted and
	// then served as a document that does not encode.
	opt = *testOptions()
	opt.Batches = 1
	resp, raw = postJSON(t, ts.URL+"/v1/runs", runRequest{Config: testConfig(), Options: &opt})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "at least 2 batches") {
		t.Fatalf("one-batch POST = %d: %s", resp.StatusCode, raw)
	}
	cfg = ringmesh.Config{Network: "ring", Topology: "1", LineBytes: 32, Workload: ringmesh.PaperWorkload()}
	resp, raw = postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg, Options: testOptions()})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "at least 2 PMs") {
		t.Fatalf("one-PM POST = %d: %s", resp.StatusCode, raw)
	}

	// Unknown fields are rejected, not ignored.
	resp, raw = postJSON(t, ts.URL+"/v1/runs", map[string]any{"config": testConfig(), "sizes": []int{4}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field POST = %d: %s", resp.StatusCode, raw)
	}

	// Empty sweep.
	resp, raw = postJSON(t, ts.URL+"/v1/sweeps", sweepRequest{Config: testConfig(), Options: testOptions()})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "sizes") {
		t.Fatalf("empty sweep POST = %d: %s", resp.StatusCode, raw)
	}

	// A sweep with one bad size names it.
	resp, raw = postJSON(t, ts.URL+"/v1/sweeps", sweepRequest{Config: testConfig(), Sizes: []int{16, 63}, Options: testOptions()})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "size 63") {
		t.Fatalf("bad sweep size POST = %d: %s", resp.StatusCode, raw)
	}

	// Unknown job id.
	resp2, err := http.Get(ts.URL + "/v1/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job GET = %d", resp2.StatusCode)
	}
}

// TestUnencodableJobDocumentIs500: a run that stalls before its first
// measured batch closes has no confidence interval (+Inf), which JSON
// cannot carry. Its job document is a 500 naming the encode error, not
// a 200 with an empty body.
func TestUnencodableJobDocumentIs500(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	cfg := stallConfig()
	opt := &ringmesh.RunOptions{WarmupCycles: 500, BatchCycles: 100_000, Batches: 2, WatchdogCycles: 2000}
	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg, Options: opt})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", resp.StatusCode, raw)
	}
	j, _ := s.lookup(decodeDoc(t, raw).ID)
	select {
	case <-j.done:
	case <-time.After(30 * time.Second):
		t.Fatal("stalling run never finished")
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.id)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var eb errorBody
	if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(body, &eb) != nil ||
		!strings.Contains(eb.Error, "unsupported value") {
		t.Fatalf("GET job = %d: %q; want 500 naming the encode error", resp.StatusCode, body)
	}
}

func TestSweepPopulatesRunCache(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	sreq := sweepRequest{Config: testConfig(), Sizes: []int{25, 16}, Options: testOptions()}
	resp, raw := postJSON(t, ts.URL+"/v1/sweeps", sreq)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep POST = %d: %s", resp.StatusCode, raw)
	}
	doc := awaitJob(t, ts.URL, decodeDoc(t, raw).ID, false)
	var points []ringmesh.SweepPoint
	if err := json.Unmarshal(doc.Points, &points); err != nil {
		t.Fatalf("bad points %s: %v", doc.Points, err)
	}
	if len(points) != 2 || points[0].Nodes != 16 || points[1].Nodes != 25 {
		t.Fatalf("points = %+v; want sizes 16, 25 sorted", points)
	}
	if points[0].Topology != "4x4" || points[1].Topology != "5x5" {
		t.Fatalf("topologies = %q, %q; want 4x4, 5x5", points[0].Topology, points[1].Topology)
	}

	// A single run at a swept size replays the sweep's cached result.
	cfg := testConfig()
	cfg.Nodes = 25
	resp, raw = postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg, Options: testOptions()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-sweep run POST = %d: %s", resp.StatusCode, raw)
	}
	if d := decodeDoc(t, raw); d.State != JobDone || !d.Cached {
		t.Fatalf("post-sweep run = state %s cached %v; want done, cached", d.State, d.Cached)
	}
}

func TestQueueBounds(t *testing.T) {
	// Constructed directly (no running workers) so the queue state is
	// deterministic. One slot: the first job queues, and the second is
	// shed, taken out of the job table again, and evicts nothing.
	reg := &metrics.Registry{}
	s := &Server{reg: reg, log: slog.New(slog.NewTextHandler(io.Discard, nil)), jobs: map[string]*job{},
		opt: Options{QueueDepth: 1}, queue: make(chan *job, 1),
		admitted: reg.Counter("ringmeshd_admit_total", metrics.Labels{}),
		shed:     reg.Counter("ringmeshd_shed_total", metrics.Labels{}),
	}
	a := testJob("", kindRun, 1)
	if err := s.admit(a, true); err != nil {
		t.Fatalf("admit into empty queue: %v", err)
	}
	b := testJob("", kindBatch, 2)
	var se *shedError
	if err := s.admit(b, true); !errors.As(err, &se) {
		t.Fatalf("admit into full queue = %v; want shedError", err)
	}
	if _, ok := s.lookup(b.id); ok {
		t.Fatal("shed job still in the job table")
	}
	if a.finished() || len(s.queue) != 1 {
		t.Fatalf("queued job finished=%v, depth %d after a shed; want it still queued alone", a.finished(), len(s.queue))
	}
	if s.admitted.Value() != 1 || s.shed.Value() != 1 {
		t.Fatalf("admitted %d shed %d; want 1 and 1", s.admitted.Value(), s.shed.Value())
	}
	s.draining = true
	d := testJob("d", kindRun, 1)
	if err := s.admit(d, true); !errors.Is(err, errDraining) {
		t.Fatalf("admit while draining = %v; want errDraining", err)
	}
}

func TestDrainRejectsNewAndFinishesInFlight(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	req := runRequest{Config: testConfig(), Options: testOptions()}
	resp, raw := postJSON(t, ts.URL+"/v1/runs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", resp.StatusCode, raw)
	}
	id := decodeDoc(t, raw).ID

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// The accepted job finished despite the drain...
	if d := awaitJob(t, ts.URL, id, false); d.State != JobDone {
		t.Fatalf("drained job state = %s", d.State)
	}
	// ...new work is refused with 503...
	resp, raw = postJSON(t, ts.URL+"/v1/runs", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d: %s; want 503", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 without Retry-After header")
	}
	// ...liveness stays green (the process is fine, it is just not
	// taking work) while readiness reflects the drain.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d; want 200", resp2.StatusCode)
	}
	resp3, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d; want 503", resp3.StatusCode)
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

func TestDrainDeadlineCancelsJobs(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	// A run long enough that the drain deadline fires first.
	long := &ringmesh.RunOptions{WarmupCycles: 500_000_000, BatchCycles: 1000, Batches: 2}
	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: testConfig(), Options: long})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", resp.StatusCode, raw)
	}
	id := decodeDoc(t, raw).ID

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v; want deadline exceeded", err)
	}
	d := awaitJob(t, ts.URL, id, true)
	if d.State != JobFailed || d.Error == nil || d.Error.Kind != "canceled" {
		t.Fatalf("canceled job = state %s error %+v; want failed/canceled", d.State, d.Error)
	}
	if d.Error.Status != http.StatusServiceUnavailable {
		t.Fatalf("canceled job status = %d; want 503", d.Error.Status)
	}
}

func TestWatchStreamsProgressAndDone(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// Long enough for at least one progress event before completion.
	opt := &ringmesh.RunOptions{WarmupCycles: 200_000, BatchCycles: 100_000, Batches: 2}
	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: testConfig(), Options: opt})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", resp.StatusCode, raw)
	}
	id := decodeDoc(t, raw).ID

	watch, err := http.Get(ts.URL + "/v1/jobs/" + id + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()
	if ct := watch.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content-type = %q", ct)
	}

	var events []string
	var lastData string
	sc := bufio.NewScanner(watch.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
			lastData = "" // the payload for this event hasn't arrived yet
		}
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
		if len(events) > 0 && events[len(events)-1] == "done" && lastData != "" {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[len(events)-1] != "done" {
		t.Fatalf("events = %v; want trailing done", events)
	}
	final := decodeDoc(t, []byte(lastData))
	if final.State != JobDone || len(final.Result) == 0 {
		t.Fatalf("final SSE document = %+v; want done with result", final)
	}
}

func TestMetricsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	for _, want := range []string{"ringmeshd_cache_hits_total", "ringmeshd_cache_misses_total", "ringmeshd_queue_depth"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics output missing %s:\n%s", want, buf.String())
		}
	}
}

func TestJobRetention(t *testing.T) {
	s := &Server{jobs: map[string]*job{}}
	var first, newest string
	for i := 0; i < jobRetain+10; i++ {
		j := testJob("", kindRun, 1)
		j.finish([]outcome{{}}, nil)
		s.register(j)
		if i == 0 {
			first = j.id
		}
		newest = j.id
	}
	if len(s.jobs) != jobRetain {
		t.Fatalf("retained %d jobs; want %d", len(s.jobs), jobRetain)
	}
	if _, ok := s.lookup(first); ok {
		t.Fatalf("oldest finished job survived retention")
	}
	if _, ok := s.lookup(newest); !ok {
		t.Fatalf("newest job missing")
	}
}

// TestDefaultLoggerFormatsNothing: without Options.Logger the server
// logs through a handler that no record passes, so a request's Info
// lines cost an Enabled check, not a formatted record.
func TestDefaultLoggerFormatsNothing(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	for _, lvl := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if s.log.Enabled(context.Background(), lvl) {
			t.Errorf("default logger enables %s records", lvl)
		}
	}
}

// TestJobRetentionSkipsLiveJob: one job that never finishes must not
// pin the documents admitted behind it. Retention drops the oldest
// finished document and steps over live ones.
func TestJobRetentionSkipsLiveJob(t *testing.T) {
	s := &Server{jobs: map[string]*job{}}
	h := s.Handler()
	status := func(id string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
		return rec.Code
	}
	blocked := testJob("", kindRun, 1) // stands for a long sweep: never finished
	s.register(blocked)
	ids := []string{"", blocked.id} // ids[n] is the nth job registered
	for i := 0; i < 2*jobRetain; i++ {
		j := testJob("", kindRun, 1)
		j.finish([]outcome{{}}, nil)
		s.register(j)
		ids = append(ids, j.id)
	}
	if n := len(s.jobs); n > jobRetain+1 || n != len(s.jobOrder) {
		t.Fatalf("table holds %d documents (%d ordered); want at most %d", n, len(s.jobOrder), jobRetain+1)
	}
	if got := status(blocked.id); got != http.StatusOK {
		t.Fatalf("live job answers %d; want 200", got)
	}
	// Finished jobs are the 2nd .. (2*jobRetain+1)th registered. The
	// bound counts the live document too, so the newest jobRetain-1
	// finished ones stay beside it.
	newest := 2*jobRetain + 1
	for _, n := range []int{newest, newest - (jobRetain - 2)} {
		if got := status(ids[n]); got != http.StatusOK {
			t.Errorf("finished job %d answers %d; want 200", n, got)
		}
	}
	for _, n := range []int{2, newest - (jobRetain - 1)} {
		if got := status(ids[n]); got != http.StatusNotFound {
			t.Errorf("finished job %d answers %d; want 404", n, got)
		}
	}
}
