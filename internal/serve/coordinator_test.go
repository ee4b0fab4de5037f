package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringmesh/internal/metrics"
)

// newTestCoordinator builds a coordinator over the given workers with
// test-speed tunables.
func newTestCoordinator(addrs ...string) *coordinator {
	co := newCoordinator(addrs, &metrics.Registry{}, nil)
	co.backoffBase = time.Millisecond
	co.backoffCap = 4 * time.Millisecond
	co.pollEvery = 2 * time.Millisecond
	return co
}

// stubOK answers every submission synchronously with a done job whose
// result carries the given latency (so tests can tell workers apart),
// and answers /healthz and /readyz with 200.
func stubOK(t *testing.T, latency float64) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		res := res(latency)
		writeJSON(w, http.StatusOK, JobView{ID: "j1", State: JobDone, Result: &res})
	}))
	t.Cleanup(ts.Close)
	return ts
}

func dispatchClass(t *testing.T, err error) *dispatchError {
	t.Helper()
	var de *dispatchError
	if !errors.As(err, &de) {
		t.Fatalf("err %v (%T) is not a dispatchError", err, err)
	}
	return de
}

func TestCoordinatorDispatchSuccess(t *testing.T) {
	co := newTestCoordinator(stubOK(t, 11).URL)
	r, attempts, err := co.runPoint(context.Background(), testConfig(), *testOptions(), nil)
	if err != nil || attempts != 1 || r.LatencyCycles != 11 {
		t.Fatalf("runPoint = (%v, %d, %v); want (11, 1, nil)", r.LatencyCycles, attempts, err)
	}
	if co.retries.Value() != 0 {
		t.Fatalf("retries = %d; want 0", co.retries.Value())
	}
}

// TestCoordinatorRetriesTransientThenSucceeds: submit rejections (503)
// are transient — the point retries with backoff and lands.
func TestCoordinatorRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "queue full"})
			return
		}
		res := res(5)
		writeJSON(w, http.StatusOK, JobView{State: JobDone, Result: &res})
	}))
	t.Cleanup(ts.Close)

	co := newTestCoordinator(ts.URL)
	r, attempts, err := co.runPoint(context.Background(), testConfig(), *testOptions(), nil)
	if err != nil || attempts != 3 || r.LatencyCycles != 5 {
		t.Fatalf("runPoint = (%v, %d, %v); want (5, 3, nil)", r.LatencyCycles, attempts, err)
	}
	if co.retries.Value() != 2 {
		t.Fatalf("retries = %d; want 2", co.retries.Value())
	}
	// Two rejections then a success: below the trip threshold, and the
	// success reset the streak.
	if co.trips.Value() != 0 || !co.workers[0].br.admitted() {
		t.Fatal("breaker tripped on a sub-threshold streak")
	}
}

// TestCoordinatorNeverRetriesConfigErrors pins the taxonomy boundary:
// a 400-class refusal is a property of the request — retrying would
// fail identically on every replica, so the coordinator must not.
func TestCoordinatorNeverRetriesConfigErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad config"})
	}))
	t.Cleanup(ts.Close)

	co := newTestCoordinator(ts.URL)
	_, attempts, err := co.runPoint(context.Background(), testConfig(), *testOptions(), nil)
	de := dispatchClass(t, err)
	if de.class != "config" || de.transient {
		t.Fatalf("class = %q transient=%v; want permanent config", de.class, de.transient)
	}
	if attempts != 1 || calls.Load() != 1 || co.retries.Value() != 0 {
		t.Fatalf("attempts=%d calls=%d retries=%d; want one attempt, no retries",
			attempts, calls.Load(), co.retries.Value())
	}
	// The request was sick, not the worker: breaker untouched.
	if !co.workers[0].br.admitted() {
		t.Fatal("config refusal counted against the breaker")
	}
}

// TestCoordinatorFailsOverOnConnectError: a dead worker (connection
// refused — same signature as kill -9) costs one transient attempt;
// the retry lands on the live replica.
func TestCoordinatorFailsOverOnConnectError(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // now refuses connections
	live := stubOK(t, 8)

	co := newTestCoordinator(deadURL, live.URL)
	co.cursor.Store(1) // next pick is workers[0], the dead one

	r, attempts, err := co.runPoint(context.Background(), testConfig(), *testOptions(), nil)
	if err != nil || r.LatencyCycles != 8 {
		t.Fatalf("runPoint = (%v, %v); want 8 from the live worker", r.LatencyCycles, err)
	}
	if attempts != 2 || co.retries.Value() != 1 {
		t.Fatalf("attempts=%d retries=%d; want 2/1", attempts, co.retries.Value())
	}
	if co.workers[0].failures.Value() == 0 {
		t.Fatal("dead worker's failure not counted")
	}
}

// TestCoordinatorBreakerEjectsFlappingWorker: once a worker's breaker
// trips, it gets no further traffic — later points go straight to the
// healthy replica.
func TestCoordinatorBreakerEjectsFlappingWorker(t *testing.T) {
	flappy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "flapping"})
	}))
	t.Cleanup(flappy.Close)
	live := stubOK(t, 9)

	co := newTestCoordinator(flappy.URL, live.URL)
	co.workers[0].br = newBreaker(1, time.Hour) // trip on the first failure
	co.cursor.Store(1)                          // next pick is the flapping worker

	if _, _, err := co.runPoint(context.Background(), testConfig(), *testOptions(), nil); err != nil {
		t.Fatalf("first point: %v", err)
	}
	if co.trips.Value() != 1 || co.workers[0].br.admitted() {
		t.Fatalf("trips=%d admitted=%v; want the flapper ejected", co.trips.Value(), co.workers[0].br.admitted())
	}

	// Ejected means zero dispatches, not just deprioritized.
	before := co.workers[0].dispatched.Value()
	for i := 0; i < 5; i++ {
		if _, _, err := co.runPoint(context.Background(), testConfig(), *testOptions(), nil); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
	}
	if got := co.workers[0].dispatched.Value(); got != before {
		t.Fatalf("ejected worker received %d dispatches", got-before)
	}
}

// TestCoordinatorProbeReadmitsRecoveredWorker: the health loop probes
// an ejected worker's /readyz and re-admits it once it answers.
func TestCoordinatorProbeReadmitsRecoveredWorker(t *testing.T) {
	w := stubOK(t, 1) // healthy the whole time; only the breaker thinks otherwise
	co := newTestCoordinator(w.URL)
	co.probeEvery = 2 * time.Millisecond
	co.workers[0].br = newBreaker(1, time.Millisecond)
	co.breakerFailure(co.workers[0])
	if co.workers[0].br.admitted() {
		t.Fatal("breaker did not trip")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go co.probeLoop(ctx)

	deadline := time.Now().Add(5 * time.Second)
	for !co.workers[0].br.admitted() {
		if time.Now().After(deadline) {
			t.Fatal("worker never re-admitted")
		}
		time.Sleep(time.Millisecond)
	}
	if co.readmissions.Value() != 1 {
		t.Fatalf("readmissions = %d; want 1", co.readmissions.Value())
	}
}

// TestCoordinatorHealthyFleetDispatchesEachPointOnce: the paper's size
// sweep over a healthy two-worker fleet whose answer time grows with
// the point's size (1 ms per node, so the last points are the slowest)
// costs exactly one worker job per point — no point is submitted twice.
func TestCoordinatorHealthyFleetDispatchesEachPointOnce(t *testing.T) {
	var posts atomic.Int64
	worker := func() *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/runs" {
				w.WriteHeader(http.StatusOK)
				return
			}
			posts.Add(1)
			var req runRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
				return
			}
			select {
			case <-time.After(time.Duration(req.Config.Nodes) * time.Millisecond):
			case <-r.Context().Done():
				return
			}
			res := res(float64(req.Config.Nodes))
			writeJSON(w, http.StatusOK, JobView{State: JobDone, Result: &res})
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	w1, w2 := worker(), worker()
	_, ts := newTestServer(t, Options{Workers: 2, WorkerAddrs: []string{w1.URL, w2.URL}})

	sizes := []int{4, 9, 16, 25, 36, 49, 64, 81, 100, 121}
	resp, raw := postJSON(t, ts.URL+"/v1/sweeps",
		sweepRequest{Config: testConfig(), Options: testOptions(), Sizes: sizes})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST sweep = %d: %s", resp.StatusCode, raw)
	}
	v := awaitJobView(t, ts.URL, decodeDoc(t, raw).ID)
	if v.State != JobDone || v.Degraded || len(v.Points) != len(sizes) {
		t.Fatalf("state=%s degraded=%v points=%d; want all %d points done", v.State, v.Degraded, len(v.Points), len(sizes))
	}
	if got := posts.Load(); got != int64(len(sizes)) {
		t.Fatalf("workers received %d submissions for %d points", got, len(sizes))
	}
	for _, p := range v.Points {
		if p.Attempts != 1 {
			t.Fatalf("point %d took %d attempts; want 1", p.Nodes, p.Attempts)
		}
	}
}

// TestCoordinatorAllBreakersOpen: with every worker ejected, dispatch
// reports a transient "unavailable" — retried with backoff, so the
// probe loop has a window to re-admit someone before the point fails.
func TestCoordinatorAllBreakersOpen(t *testing.T) {
	co := newTestCoordinator(stubOK(t, 1).URL)
	co.workers[0].br = newBreaker(1, time.Hour)
	co.workers[0].br.failure()
	co.maxRetries = 1

	_, attempts, err := co.runPoint(context.Background(), testConfig(), *testOptions(), nil)
	de := dispatchClass(t, err)
	if de.class != "unavailable" || !de.transient {
		t.Fatalf("class = %q transient=%v; want transient unavailable", de.class, de.transient)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d; want maxRetries+1 = 2", attempts)
	}
}

// TestCoordinatorJobFailureKeepsWorkerAdmitted pins the ejection
// boundary: a job-level failure arrives over a demonstrably healthy
// HTTP service, so the taxonomy decides retrying — the breaker hears
// nothing.
func TestCoordinatorJobFailureKeepsWorkerAdmitted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/runs" {
			writeJSON(w, http.StatusAccepted, JobView{ID: "j7", State: JobQueued})
			return
		}
		writeJSON(w, http.StatusOK, JobView{ID: "j7", State: JobFailed,
			Error: &JobError{Status: http.StatusUnprocessableEntity, Kind: "stall", Message: "no progress"}})
	}))
	t.Cleanup(ts.Close)

	co := newTestCoordinator(ts.URL)
	co.workers[0].br = newBreaker(1, time.Hour) // would trip on any breaker-visible failure

	_, attempts, err := co.runPoint(context.Background(), testConfig(), *testOptions(), nil)
	de := dispatchClass(t, err)
	if de.class != "stall" || de.transient {
		t.Fatalf("class = %q transient=%v; want permanent stall", de.class, de.transient)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d; a deterministic stall must not retry", attempts)
	}
	if !co.workers[0].br.admitted() {
		t.Fatal("job-level failure ejected a healthy worker")
	}
}

// fleetStub simulates a worker daemon wire-faithfully enough for e2e
// coordinator tests: synchronous cached-style answers for most sizes,
// and an async job that fails with the given taxonomy error for sizes
// in fail.
func fleetStub(t *testing.T, fail map[int]*JobError) *httptest.Server {
	t.Helper()
	var (
		mu       sync.Mutex
		failJobs = map[string]*JobError{}
		n        int
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz", r.URL.Path == "/readyz":
			w.WriteHeader(http.StatusOK)
		case r.URL.Path == "/v1/runs":
			var req runRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
				return
			}
			if je, ok := fail[req.Config.Nodes]; ok {
				mu.Lock()
				n++
				id := fmt.Sprintf("jfail%d", n)
				failJobs[id] = je
				mu.Unlock()
				writeJSON(w, http.StatusAccepted, JobView{ID: id, State: JobQueued})
				return
			}
			res := res(float64(req.Config.Nodes))
			writeJSON(w, http.StatusOK, JobView{State: JobDone, Result: &res})
		case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
			mu.Lock()
			je := failJobs[id]
			mu.Unlock()
			if je == nil {
				writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
				return
			}
			writeJSON(w, http.StatusOK, JobView{ID: id, State: JobFailed, Error: je})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// awaitJobView polls a job to a terminal state, decoding the full
// document (including the degraded-sweep fields jobDoc omits).
func awaitJobView(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State == JobDone || v.State == JobFailed {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerCoordinatedSweepDegraded is the end-to-end partial-failure
// contract: one size fails deterministically on every worker, and the
// sweep response carries the completed points plus a structured error
// for the doomed one — degraded, not void.
func TestServerCoordinatedSweepDegraded(t *testing.T) {
	fail := map[int]*JobError{25: {Status: http.StatusUnprocessableEntity, Kind: "stall", Message: "injected stall"}}
	w1, w2 := fleetStub(t, fail), fleetStub(t, fail)
	s, ts := newTestServer(t, Options{Workers: 2, WorkerAddrs: []string{w1.URL, w2.URL}})
	s.coord.backoffBase = time.Millisecond
	s.coord.pollEvery = 2 * time.Millisecond

	resp, raw := postJSON(t, ts.URL+"/v1/sweeps",
		sweepRequest{Config: testConfig(), Options: testOptions(), Sizes: []int{16, 25, 36}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST sweep = %d: %s", resp.StatusCode, raw)
	}
	v := awaitJobView(t, ts.URL, decodeDoc(t, raw).ID)

	if v.State != JobDone || !v.Degraded {
		t.Fatalf("state=%s degraded=%v error=%+v; want done and degraded", v.State, v.Degraded, v.Error)
	}
	if len(v.Points) != 2 || v.Points[0].Nodes != 16 || v.Points[1].Nodes != 36 {
		t.Fatalf("points = %+v; want sizes 16 and 36", v.Points)
	}
	for _, p := range v.Points {
		if p.Result.LatencyCycles != float64(p.Nodes) {
			t.Fatalf("point %d carries result %v; want the worker's %d", p.Nodes, p.Result.LatencyCycles, p.Nodes)
		}
	}
	if len(v.PointErrors) != 1 || v.PointErrors[0].Nodes != 25 {
		t.Fatalf("point_errors = %+v; want exactly size 25", v.PointErrors)
	}
	if pe := v.PointErrors[0].Error; pe == nil || pe.Kind != "stall" || pe.Status != http.StatusUnprocessableEntity {
		t.Fatalf("point error = %+v; want the worker's stall classification", v.PointErrors[0].Error)
	}
	if s.coord.pointsFailed.Value() != 1 {
		t.Fatalf("points_failed = %d; want 1", s.coord.pointsFailed.Value())
	}
}

// TestServerCoordinatedSweepAllPointsFailed: zero completed points is
// the one wholesale failure — classified by the first point error, not
// a generic 500.
func TestServerCoordinatedSweepAllPointsFailed(t *testing.T) {
	fail := map[int]*JobError{
		16: {Status: http.StatusUnprocessableEntity, Kind: "stall", Message: "injected stall"},
		36: {Status: http.StatusUnprocessableEntity, Kind: "stall", Message: "injected stall"},
	}
	w1 := fleetStub(t, fail)
	s, ts := newTestServer(t, Options{Workers: 2, WorkerAddrs: []string{w1.URL}})
	s.coord.backoffBase = time.Millisecond
	s.coord.pollEvery = 2 * time.Millisecond

	resp, raw := postJSON(t, ts.URL+"/v1/sweeps",
		sweepRequest{Config: testConfig(), Options: testOptions(), Sizes: []int{16, 36}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST sweep = %d: %s", resp.StatusCode, raw)
	}
	v := awaitJobView(t, ts.URL, decodeDoc(t, raw).ID)
	if v.State != JobFailed || v.Error == nil || v.Error.Kind != "stall" {
		t.Fatalf("state=%s error=%+v; want wholesale failure classified as stall", v.State, v.Error)
	}
	if len(v.PointErrors) != 2 {
		t.Fatalf("point_errors = %+v; want both sizes reported", v.PointErrors)
	}
}

// TestServerCoordinatedRunCachesLocally: the coordinator's own result
// cache fronts the fleet — an identical second run answers locally
// without a second dispatch.
func TestServerCoordinatedRunCachesLocally(t *testing.T) {
	var calls atomic.Int64
	w := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/readyz" {
			rw.WriteHeader(http.StatusOK)
			return
		}
		calls.Add(1)
		res := res(3)
		writeJSON(rw, http.StatusOK, JobView{State: JobDone, Result: &res})
	}))
	t.Cleanup(w.Close)
	_, ts := newTestServer(t, Options{Workers: 2, WorkerAddrs: []string{w.URL}})

	body := runRequest{Config: testConfig(), Options: testOptions()}
	resp, raw := postJSON(t, ts.URL+"/v1/runs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST = %d: %s", resp.StatusCode, raw)
	}
	first := awaitJobView(t, ts.URL, decodeDoc(t, raw).ID)
	if first.State != JobDone || first.Result.LatencyCycles != 3 {
		t.Fatalf("first run = %+v; want the worker's 3", first)
	}

	resp, raw = postJSON(t, ts.URL+"/v1/runs", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second POST = %d: %s", resp.StatusCode, raw)
	}
	second := decodeDoc(t, raw)
	if second.State != JobDone || !second.Cached {
		t.Fatalf("second run = state %s cached %v; want a local cache hit", second.State, second.Cached)
	}
	if calls.Load() != 1 {
		t.Fatalf("worker dispatched %d times; want 1", calls.Load())
	}
}
