package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"ringmesh"
)

// chromeTrace mirrors the Chrome trace-event JSON the trace endpoint
// serves.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestJobTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: testConfig(), Options: testOptions()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", resp.StatusCode, raw)
	}
	id := decodeDoc(t, raw).ID
	awaitJob(t, ts.URL, id, false)

	tr, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace GET = %d", tr.StatusCode)
	}
	if ct := tr.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace content-type = %q", ct)
	}
	var ct chromeTrace
	if err := json.NewDecoder(tr.Body).Decode(&ct); err != nil {
		t.Fatalf("trace not valid Chrome JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		seen[ev.Name] = true
		if ev.Ph != "X" {
			t.Errorf("span %q phase = %q; want complete event X", ev.Name, ev.Ph)
		}
		if ev.Dur < 0 || ev.TS < 0 {
			t.Errorf("span %q has negative timing ts=%g dur=%g", ev.Name, ev.TS, ev.Dur)
		}
	}
	for _, want := range []string{"validate", "enqueue", "queue-wait", "run", "cache-store"} {
		if !seen[want] {
			t.Errorf("trace missing lifecycle span %q; got %v", want, seen)
		}
	}

	// Unknown job ids 404 on the trace route too.
	nf, err := http.Get(ts.URL + "/v1/jobs/j999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace GET = %d", nf.StatusCode)
	}
}

func TestJobHistogramsAndRuntimeGaugesExported(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: testConfig(), Options: testOptions()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", resp.StatusCode, raw)
	}
	awaitJob(t, ts.URL, decodeDoc(t, raw).ID, false)

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(mr.Body)
	mr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`ringmeshd_job_run_seconds_bucket{family="mesh",outcome="done",le="+Inf"} 1`,
		`ringmeshd_job_run_seconds_count{family="mesh",outcome="done"} 1`,
		`ringmeshd_job_queue_wait_seconds_bucket{family="mesh",le="+Inf"} 1`,
		"go_goroutines ",
		"go_heap_alloc_bytes ",
		"go_gc_pause_total_seconds ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestPprofGatedByOption(t *testing.T) {
	_, off := newTestServer(t, Options{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without EnablePprof = %d; want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Options{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index with EnablePprof = %d; want 200", resp.StatusCode)
	}
}

// watchUntilDone consumes an SSE stream until its "done" event (with
// payload) arrives, returning the final job document.
func watchUntilDone(t *testing.T, url string) jobDoc {
	t.Helper()
	watch, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()
	var lastEvent, lastData string
	sc := bufio.NewScanner(watch.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			lastEvent = strings.TrimPrefix(line, "event: ")
			lastData = ""
		}
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
		if lastEvent == "done" && lastData != "" {
			return decodeDoc(t, []byte(lastData))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("watch stream error before done: %v", err)
	}
	t.Fatalf("watch stream closed without a done event")
	return jobDoc{}
}

// waitGoroutinesBelow polls until the goroutine count drops to the
// bound, failing the test if it never does — the leak check for the
// SSE termination tests.
func waitGoroutinesBelow(t *testing.T, bound int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= bound {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines stuck at %d (bound %d):\n%s",
				runtime.NumGoroutine(), bound, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWatchTerminatesWhenJobCanceledMidRun opens an SSE watch on a
// long job, then cancels the job out from under it (drain with an
// expired deadline). The stream must deliver a "done" event carrying
// the failed/canceled document and terminate — no watcher goroutine
// may outlive the job.
func TestWatchTerminatesWhenJobCanceledMidRun(t *testing.T) {
	base := runtime.NumGoroutine()
	s, ts := newTestServer(t, Options{Workers: 1})

	long := &ringmesh.RunOptions{WarmupCycles: 500_000_000, BatchCycles: 1000, Batches: 2}
	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: testConfig(), Options: long})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", resp.StatusCode, raw)
	}
	id := decodeDoc(t, raw).ID

	// Watch from a goroutine while the job runs, then cancel it.
	docCh := make(chan jobDoc, 1)
	go func() {
		docCh <- watchUntilDone(t, ts.URL+"/v1/jobs/"+id+"?watch=1")
	}()
	time.Sleep(50 * time.Millisecond) // let the watcher attach mid-run

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v; want deadline exceeded", err)
	}

	select {
	case d := <-docCh:
		if d.State != JobFailed || d.Error == nil || d.Error.Kind != "canceled" {
			t.Fatalf("watched cancellation = state %s error %+v; want failed/canceled", d.State, d.Error)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch stream did not terminate after job cancellation")
	}
	ts.Close()
	// Everything the test spawned — worker pool, watcher, HTTP serving
	// goroutines — must unwind.
	waitGoroutinesBelow(t, base+2)
}

// TestWatchTerminatesDuringDrain is the SIGTERM-shaped shutdown: a
// graceful drain lets the in-flight job finish, and the open SSE
// watch receives its "done" document and terminates cleanly.
func TestWatchTerminatesDuringDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	s, ts := newTestServer(t, Options{Workers: 1})

	opt := &ringmesh.RunOptions{WarmupCycles: 100_000, BatchCycles: 50_000, Batches: 2}
	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: testConfig(), Options: opt})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", resp.StatusCode, raw)
	}
	id := decodeDoc(t, raw).ID

	docCh := make(chan jobDoc, 1)
	go func() {
		docCh <- watchUntilDone(t, ts.URL+"/v1/jobs/"+id+"?watch=1")
	}()
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	select {
	case d := <-docCh:
		if d.State != JobDone || len(d.Result) == 0 {
			t.Fatalf("watched drain completion = state %s; want done with result", d.State)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch stream did not terminate after drain")
	}
	ts.Close()
	waitGoroutinesBelow(t, base+2)
}

// TestDoneJobIsInMetrics: a job reads done only once its metrics are
// in. For each of a few quick runs, a scrape made the moment the watch
// stream's done event arrives counts that job in the completed counter
// and in the run histogram. The journal's fsync, which follows done,
// holds the window open on code that observes them after done.
func TestDoneJobIsInMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, JournalDir: t.TempDir()})
	for i := range 8 {
		resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: meshRun(16, uint64(500+i)), Options: testOptions()})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %d = %d: %s", i, resp.StatusCode, raw)
		}
		id := decodeDoc(t, raw).ID
		watch, err := http.Get(ts.URL + "/v1/jobs/" + id + "?watch=1")
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(watch.Body)
		for sc.Scan() && sc.Text() != "event: done" {
		}
		watch.Body.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		body := getMetrics(t, ts.URL)
		for _, name := range []string{"ringmeshd_jobs_completed_total", "ringmeshd_job_run_seconds_count"} {
			if n := sumSeries(t, body, name); n != float64(i+1) {
				t.Fatalf("job %d read done with %s = %g; want %d", i, name, n, i+1)
			}
		}
	}
}
