package serve

import (
	"bytes"
	"context"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"ringmesh"
	"ringmesh/internal/fidelity"
)

// TestWorkersFieldDoesNotSplitCache pins the serving-side half of the
// execution-only contract: the same logical run submitted with
// different (client-chosen) workers values is one cache entry, and the
// cached result is byte-identical — the parallel engine cannot be
// observed through the API.
func TestWorkersFieldDoesNotSplitCache(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	cfg := testConfig()
	cfg.Workers = 4 // overridden: a served point runs serial
	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg, Options: testOptions()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST = %d: %s", resp.StatusCode, raw)
	}
	first := awaitJob(t, ts.URL, decodeDoc(t, raw).ID, false)
	if first.Cached {
		t.Fatal("first run reported cached")
	}

	cfg.Workers = 0 // a different spelling of the same run
	resp, raw = postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg, Options: testOptions()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-submission with different workers = %d: %s", resp.StatusCode, raw)
	}
	second := decodeDoc(t, raw)
	if second.State != JobDone || !second.Cached {
		t.Fatalf("re-submission = state %s cached %v; want done, cached", second.State, second.Cached)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("cached result differs across workers values:\n%s\nvs\n%s", first.Result, second.Result)
	}
}

// idField matches the job id in a served document, the one value that
// differs between two daemons given the same jobs.
var idField = regexp.MustCompile(`"id": "[^"]*"`)

// repeatJob is one submission of a repeated-keys round, with first[i]
// true where point i is the first of its cache key (sweep points in
// ascending size order).
type repeatJob struct {
	path  string
	body  any
	first []bool
}

// repeatRound is one round of jobs that repeat a cache key, every key
// fresh from seed: batch [A, A, B], batch [A, B, A] and sweep sizes
// [16, 16, 8].
func repeatRound(seed uint64) []repeatJob {
	runs := func(cfgs ...ringmesh.Config) (rs []batchRunRequest) {
		for _, c := range cfgs {
			rs = append(rs, batchRunRequest{Config: c, Options: testOptions()})
		}
		return rs
	}
	a, b := meshRun(16, seed), meshRun(9, seed)
	c, d := meshRun(16, seed+1), meshRun(9, seed+1)
	ring := ringmesh.Config{Network: "ring", LineBytes: 32, Workload: ringmesh.PaperWorkload(), Seed: seed + 2}
	return []repeatJob{
		{"/v1/batch", batchRequest{Runs: runs(a, a, b)}, []bool{true, false, true}},
		{"/v1/batch", batchRequest{Runs: runs(c, d, c)}, []bool{true, true, false}},
		{"/v1/sweeps", sweepRequest{Config: ring, Sizes: []int{16, 16, 8}, Options: testOptions()},
			[]bool{true, true, false}},
	}
}

// TestRepeatedKeysKeepTheirAnswer: a job that names one cache key twice
// reports the first occurrence computed and every repeat cached, however
// wide its points fan out on a two-slot daemon, and its documents are
// byte for byte those of a one-worker daemon given the same jobs one at
// a time.
func TestRepeatedKeysKeepTheirAnswer(t *testing.T) {
	_, ref := newTestServer(t, Options{Workers: 1})
	local, lts := newTestServer(t, Options{Workers: 2})

	for round := range 20 {
		jobs := repeatRound(uint64(1000 + 10*round))
		var want [][]byte
		for _, rj := range jobs {
			want = append(want, idField.ReplaceAll(submitFinal(t, ref.URL, rj.path, rj.body), nil))
		}
		// All three at once, so their points contend for the slots.
		queued := make([]*job, len(jobs))
		for k, rj := range jobs {
			queued[k] = submitQueued(t, local, lts.URL, rj.path, rj.body)
		}
		for k, rj := range jobs {
			j := queued[k]
			got := idField.ReplaceAll(awaitRaw(t, lts.URL, j.id), nil)
			j.mu.Lock()
			outs := j.outcomes
			j.mu.Unlock()
			for i, o := range outs {
				if o.cached == rj.first[i] {
					t.Errorf("round %d: %s point %d cached = %v; want %v",
						round, rj.path, i, o.cached, !rj.first[i])
				}
			}
			if !bytes.Equal(got, want[k]) {
				t.Errorf("round %d: %s document differs from one worker's:\n got: %s\nwant: %s",
					round, rj.path, got, want[k])
			}
		}
	}
}

// slotRun is an 11x11 schedule of about 0.15 s: long enough that two
// points overlapping in time is an observation, not luck.
var slotRun = &ringmesh.RunOptions{WarmupCycles: 500, BatchCycles: 2000, Batches: 2}

// slotBatch is a batch of distinct slotRun points, one per seed.
func slotBatch(seeds ...uint64) batchRequest {
	var b batchRequest
	for _, seed := range seeds {
		b.Runs = append(b.Runs, batchRunRequest{Config: meshRun(121, seed), Options: slotRun})
	}
	return b
}

// submitQueued posts a submission the daemon has to queue and returns
// its job.
func submitQueued(t *testing.T, s *Server, base, path string, body any) *job {
	t.Helper()
	resp, raw := postJSON(t, base+path, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s = %d: %s", path, resp.StatusCode, raw)
	}
	j, ok := s.lookup(decodeDoc(t, raw).ID)
	if !ok {
		t.Fatalf("POST %s: job not registered", path)
	}
	return j
}

// simulating counts the goroutines inside Server.simulate, read from
// their stacks: the simulations in flight, measured apart from the
// slots that are meant to bound them.
func simulating() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "serve.(*Server).simulate(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// awaitSlots polls until n simulation slots are taken, failing if j
// finishes first or the wait outlasts 30 s.
func awaitSlots(t *testing.T, s *Server, n int, j *job) {
	t.Helper()
	timeout := time.After(30 * time.Second)
	for len(s.sims) < n {
		select {
		case <-j.done:
			t.Fatalf("job %s finished before %d simulations ran at once", j.id, n)
		case <-timeout:
			t.Fatalf("%d simulation slots never taken at once", n)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestSimulationSlots pins what Workers bounds on a simulating daemon:
// simulations in flight, not jobs. A batch spreads over idle slots,
// concurrent jobs never exceed them, and a slot freed by a batch goes to
// the job that waited longest.
func TestSimulationSlots(t *testing.T) {
	t.Run("batch points simulate at once", func(t *testing.T) {
		s, ts := newTestServer(t, Options{Workers: 2})
		j := submitQueued(t, s, ts.URL, "/v1/batch", slotBatch(1, 2))
		awaitSlots(t, s, 2, j)
		<-j.done
	})

	t.Run("two batches share the slots", func(t *testing.T) {
		s, ts := newTestServer(t, Options{Workers: 2})
		a := submitQueued(t, s, ts.URL, "/v1/batch", slotBatch(11, 12, 13, 14))
		b := submitQueued(t, s, ts.URL, "/v1/batch", slotBatch(21, 22, 23, 24))
		timeout := time.After(60 * time.Second)
		peak := 0
		for !a.finished() || !b.finished() {
			n := simulating()
			if n > 2 {
				t.Fatalf("%d simulations in flight on 2 workers", n)
			}
			peak = max(peak, n)
			select {
			case <-timeout:
				t.Fatal("the two batches did not finish in 60 s")
			case <-time.After(time.Millisecond):
			}
		}
		if peak != 2 {
			t.Fatalf("at most %d simulations in flight; want both slots used", peak)
		}
	})

	t.Run("a run overtakes a batch", func(t *testing.T) {
		s, ts := newTestServer(t, Options{Workers: 2})
		batch := submitQueued(t, s, ts.URL, "/v1/batch", slotBatch(31, 32, 33, 34))
		awaitSlots(t, s, 2, batch)
		cfg := meshRun(121, 35)
		key, err := ringmesh.CacheKey(cfg, *slotRun)
		if err != nil {
			t.Fatal(err)
		}
		run := submitQueued(t, s, ts.URL, "/v1/runs", runRequest{Config: cfg, Options: slotRun})
		// The run is computing once its flight is registered; with both
		// slots taken, it is next in line for one.
		timeout := time.After(60 * time.Second)
		for waiting := false; !waiting; {
			s.cache.mu.Lock()
			_, waiting = s.cache.inflight[key]
			s.cache.mu.Unlock()
			select {
			case <-run.done:
				waiting = true
			case <-batch.done:
				t.Fatal("the batch finished before the run submitted behind it")
			case <-timeout:
				t.Fatal("the run never started computing")
			case <-time.After(time.Millisecond):
			}
		}
		select {
		case <-run.done:
		case <-batch.done:
			t.Fatal("the batch finished before the run submitted behind it")
		case <-timeout:
			t.Fatal("neither job finished in 60 s")
		}
		<-batch.done
	})
}

// TestQueuedAnalyticEntryTakesNoSlot: the analytic entry of a queued
// mixed batch is estimated at once, as at submission, while slow
// simulations hold every slot; it does not wait for a slot behind them.
func TestQueuedAnalyticEntryTakesNoSlot(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	slow := &ringmesh.RunOptions{WarmupCycles: 500_000_000, BatchCycles: 1000, Batches: 2}
	holder := submitQueued(t, s, ts.URL, "/v1/batch", batchRequest{Runs: []batchRunRequest{
		{Config: meshRun(121, 41), Options: slow}, {Config: meshRun(121, 42), Options: slow},
	}})
	awaitSlots(t, s, 2, holder)

	analytic := meshRun(121, 43)
	analytic.Fidelity = fidelity.Analytic
	mixed := submitQueued(t, s, ts.URL, "/v1/batch", batchRequest{Runs: []batchRunRequest{
		{Config: meshRun(121, 44), Options: slotRun}, {Config: analytic, Options: slotRun},
	}})
	timeout := time.After(10 * time.Second)
	// The simulated entry waits for a slot, so the one point done is
	// the estimate.
	for mixed.pointsDone.Load() == 0 {
		select {
		case <-timeout:
			t.Fatal("the analytic entry was not estimated while the simulations held both slots")
		case <-time.After(time.Millisecond):
		}
	}
	if len(s.sims) != 2 || holder.finished() || mixed.finished() {
		t.Fatalf("slots taken %d, holder finished %v, mixed batch finished %v; want 2, false, false",
			len(s.sims), holder.finished(), mixed.finished())
	}
	// Cancel the slow simulations rather than wait for them.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(ctx)
}
