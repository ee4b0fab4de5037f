package serve

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"ringmesh"
)

// update re-records testdata/*.golden from the running code. The wire
// goldens were recorded before run, sweep and batch were folded into
// one point-list job, so they pin the job document and the journal's
// accepted line across that change; re-record only for a deliberate
// wire or journal format change.
var update = flag.Bool("update", false, "rewrite testdata/*.golden")

// deadlineField matches the one value in a job document that depends
// on the wall clock.
var deadlineField = regexp.MustCompile(`"deadline_unix_ns": \d+`)

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	got = deadlineField.ReplaceAll(got, []byte(`"deadline_unix_ns": 0`))
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from its golden:\n got: %s\nwant: %s", name, got, want)
	}
}

// awaitRaw polls a job to a terminal state and returns the document's
// bytes as served.
func awaitRaw(t *testing.T, base, id string) []byte {
	t.Helper()
	awaitJob(t, base, id, true)
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// submitFinal posts a submission and returns its terminal document:
// the response itself when the job was answered inline, else the
// polled document.
func submitFinal(t *testing.T, base, path string, body any) []byte {
	t.Helper()
	resp, raw := postJSON(t, base+path, body)
	switch resp.StatusCode {
	case http.StatusOK:
		return raw
	case http.StatusAccepted:
		return awaitRaw(t, base, decodeDoc(t, raw).ID)
	}
	t.Fatalf("POST %s = %d: %s", path, resp.StatusCode, raw)
	return nil
}

// stallConfig wedges at 8 PMs and completes at 4 and 12: without
// virtual channels a dead link at full load deadlocks the single
// 8-station ring (the watchdog horizon outlasts the fault, so the
// stall is the ring's, not the link's).
func stallConfig() ringmesh.Config {
	return ringmesh.Config{
		Network:    "ring",
		Nodes:      8,
		LineBytes:  32,
		Workload:   ringmesh.Workload{R: 1, C: 1, T: 16, ReadProb: 0.7},
		Seed:       1,
		UnsafeNoVC: true,
		FaultPlan:  "stutter@1000+2500:node=0",
	}
}

func stallOptions() *ringmesh.RunOptions {
	return &ringmesh.RunOptions{WarmupCycles: 500, BatchCycles: 4000, Batches: 2,
		WatchdogCycles: 3000, FailOnStall: true}
}

// TestWireGoldenRun pins the run job document in each terminal shape.
func TestWireGoldenRun(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	req := runRequest{Config: testConfig(), Options: testOptions(), DeadlineMS: 60_000}
	checkGolden(t, "run-done", submitFinal(t, ts.URL, "/v1/runs", req))
	checkGolden(t, "run-cached", submitFinal(t, ts.URL, "/v1/runs", req))

	req = runRequest{Config: testConfig(), Options: testOptions(), Fidelity: "analytic"}
	checkGolden(t, "run-analytic", submitFinal(t, ts.URL, "/v1/runs", req))

	cfg := testConfig()
	cfg.Seed = 43
	auto := submitFinal(t, ts.URL, "/v1/runs",
		runRequest{Config: cfg, Options: testOptions(), Fidelity: "auto", Class: "batch"})
	checkGolden(t, "run-auto", auto)
	checkGolden(t, "run-auto-upgrade", awaitRaw(t, ts.URL, decodeDoc(t, auto).Upgrade))

	checkGolden(t, "run-failed", submitFinal(t, ts.URL, "/v1/runs",
		runRequest{Config: stallConfig(), Options: stallOptions()}))
}

// TestWireGoldenRunDegraded pins the shed-pressure degrade: with the
// worker busy and the queue full, a background run that named no tier
// is answered analytically and marked degraded.
func TestWireGoldenRunDegraded(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})

	long := &ringmesh.RunOptions{WarmupCycles: 500_000_000, BatchCycles: 1000, Batches: 1}
	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: testConfig(), Options: long})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("occupier POST = %d: %s", resp.StatusCode, raw)
	}
	waitForRunning(t, s, decodeDoc(t, raw).ID)
	cfg := testConfig()
	cfg.Seed = 2
	resp, raw = postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg, Options: long, Class: "background"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue filler POST = %d: %s", resp.StatusCode, raw)
	}

	cfg.Seed = 3
	resp, raw = postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg, Options: long, Class: "background"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("background POST at saturation = %d: %s; want degraded 200", resp.StatusCode, raw)
	}
	checkGolden(t, "run-degraded", raw)

	ctx, cancel := drainCtx()
	cancel() // the occupier never finishes on its own
	_ = s.Drain(ctx)
}

// TestWireGoldenSweep pins the sweep job document in the shapes a
// simulating daemon produces.
func TestWireGoldenSweep(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	req := sweepRequest{Config: testConfig(), Sizes: []int{25, 16}, Options: testOptions()}
	checkGolden(t, "sweep-done", submitFinal(t, ts.URL, "/v1/sweeps", req))
	checkGolden(t, "sweep-cached", submitFinal(t, ts.URL, "/v1/sweeps", req))

	req.Fidelity = "analytic"
	checkGolden(t, "sweep-analytic", submitFinal(t, ts.URL, "/v1/sweeps", req))

	// 16 is cached exactly, 9 and 36 are not: the auto answer mixes an
	// exact point with analytic ones.
	req = sweepRequest{Config: testConfig(), Sizes: []int{36, 16, 9}, Options: testOptions(), Fidelity: "auto"}
	auto := submitFinal(t, ts.URL, "/v1/sweeps", req)
	checkGolden(t, "sweep-auto", auto)
	awaitRaw(t, ts.URL, decodeDoc(t, auto).Upgrade)
}

// TestLocalSweepDegradesOnFailedPoint: a simulating daemon merges a
// sweep exactly as a coordinator does — a size that fails at run time
// (here: stalls) is classified in point_errors and the other sizes come
// back, where the sweep used to fail wholesale at the first bad size.
// Its golden is the one recorded after the point-list job, not before.
func TestLocalSweepDegradesOnFailedPoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	cfg := stallConfig()
	cfg.Nodes = 0
	raw := submitFinal(t, ts.URL, "/v1/sweeps",
		sweepRequest{Config: cfg, Sizes: []int{12, 8, 4}, Options: stallOptions()})
	var v JobView
	mustUnmarshal(t, raw, &v)
	if v.State != JobDone || !v.Degraded {
		t.Fatalf("state=%s degraded=%v error=%+v; want done and degraded", v.State, v.Degraded, v.Error)
	}
	if len(v.Points) != 2 || v.Points[0].Nodes != 4 || v.Points[1].Nodes != 12 {
		t.Fatalf("points = %+v; want sizes 4 and 12", v.Points)
	}
	if len(v.PointErrors) != 1 || v.PointErrors[0].Nodes != 8 {
		t.Fatalf("point_errors = %+v; want exactly size 8", v.PointErrors)
	}
	if pe := v.PointErrors[0].Error; pe.Kind != "stall" || pe.Status != http.StatusUnprocessableEntity || pe.Stall == nil {
		t.Fatalf("point error = %+v; want a stall with its diagnosis", pe)
	}
	checkGolden(t, "sweep-degraded-local", raw)
}

// TestWireGoldenSweepCoordinated pins the merged document of a
// coordinated sweep: some points failed (degraded, point_errors) and
// every point failed (failed, classified by the first).
func TestWireGoldenSweepCoordinated(t *testing.T) {
	_, worker := newTestServer(t, Options{Workers: 1})
	s, ts := newTestServer(t, Options{Workers: 1, WorkerAddrs: []string{worker.URL}})
	s.coord.workers[0].name = "w0" // the address carries an ephemeral port
	s.coord.pollEvery = 2 * time.Millisecond

	cfg := stallConfig()
	cfg.Nodes = 0
	req := sweepRequest{Config: cfg, Sizes: []int{12, 8, 4}, Options: stallOptions()}
	checkGolden(t, "sweep-degraded", submitFinal(t, ts.URL, "/v1/sweeps", req))
	req.Sizes = []int{8}
	checkGolden(t, "sweep-failed", submitFinal(t, ts.URL, "/v1/sweeps", req))
}

// TestWireGoldenBatch pins the batch job document in each terminal
// shape.
func TestWireGoldenBatch(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	var runs []batchRunRequest
	for i := range 3 {
		cfg := testConfig()
		cfg.Seed = uint64(200 + i%2) // entries 0 and 2 share a cache key
		runs = append(runs, batchRunRequest{Config: cfg, Options: testOptions()})
	}
	req := batchRequest{Runs: runs}
	checkGolden(t, "batch-done", submitFinal(t, ts.URL, "/v1/batch", req))
	checkGolden(t, "batch-cached", submitFinal(t, ts.URL, "/v1/batch", req))

	stall := batchRunRequest{Config: stallConfig(), Options: stallOptions()}
	checkGolden(t, "batch-degraded", submitFinal(t, ts.URL, "/v1/batch",
		batchRequest{Runs: []batchRunRequest{runs[0], stall}, DeadlineMS: 60_000}))
	checkGolden(t, "batch-failed", submitFinal(t, ts.URL, "/v1/batch",
		batchRequest{Runs: []batchRunRequest{stall, stall}}))

	acfg := testConfig()
	acfg.Fidelity = "analytic"
	xcfg := testConfig()
	xcfg.Seed = 44
	auto := submitFinal(t, ts.URL, "/v1/batch", batchRequest{
		Runs: []batchRunRequest{
			{Config: acfg, Options: testOptions()},
			{Config: xcfg, Options: testOptions()},
			runs[1],
		},
		Fidelity: "auto",
	})
	checkGolden(t, "batch-auto", auto)
	checkGolden(t, "batch-auto-upgrade", awaitRaw(t, ts.URL, decodeDoc(t, auto).Upgrade))
}

// TestJournalGoldenAcceptedLines pins the accepted record the journal
// writes for each job kind, byte for byte: it is what a daemon started
// after a crash has to read back, whichever version wrote it.
func TestJournalGoldenAcceptedLines(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 1, JournalDir: dir})

	submitFinal(t, ts.URL, "/v1/runs",
		runRequest{Config: testConfig(), Options: testOptions(), Class: "background", DeadlineMS: 60_000})
	cfg := testConfig()
	cfg.Nodes = 0
	submitFinal(t, ts.URL, "/v1/sweeps",
		sweepRequest{Config: cfg, Sizes: []int{25, 16}, Options: testOptions()})
	acfg := testConfig()
	acfg.Seed, acfg.Fidelity = 7, "analytic"
	submitFinal(t, ts.URL, "/v1/batch", batchRequest{Runs: []batchRunRequest{
		{Config: stallConfig(), Options: stallOptions()},
		{Config: acfg},
	}})
	ctx, cancel := drainCtx()
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	wal, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, line := range bytes.Split(bytes.TrimSpace(wal), []byte("\n")) {
		rec, err := decodeRecord(line)
		if err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if rec.Op != opAccepted {
			continue
		}
		if rec.Deadline != 0 {
			// The checksum covers the deadline, so the line is re-framed
			// around the normalised value; lines without one stay raw.
			rec.Deadline = 1
			if line, err = encodeRecord(rec); err != nil {
				t.Fatal(err)
			}
			line = bytes.TrimSuffix(line, []byte("\n"))
		}
		got = append(append(got, line...), '\n')
	}
	if n := strings.Count(string(got), "\n"); n != 3 {
		t.Fatalf("journal holds %d accepted records; want 3:\n%s", n, got)
	}
	checkGolden(t, "journal-accepted", got)
}

// TestJournalGoldenLinesReplay feeds the accepted lines an earlier
// binary wrote (the golden was recorded before the point-list job)
// through replay's decoder and expand: a journal from before an
// upgrade must rebuild the same jobs after it.
func TestJournalGoldenLinesReplay(t *testing.T) {
	wal, err := os.ReadFile(filepath.Join("testdata", "journal-accepted.golden"))
	if err != nil {
		t.Fatal(err)
	}
	runKey, err := ringmesh.CacheKey(testConfig(), *testOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind, class, family string
		deadline            bool
		nodes               []int // per point, in document order
	}{
		{kindRun, "background", "mesh", true, []int{0}},
		{kindSweep, "interactive", "mesh", false, []int{16, 25}},
		{kindBatch, "batch", "batch", false, []int{0, 0}},
	}
	lines := bytes.Split(bytes.TrimSpace(wal), []byte("\n"))
	if len(lines) != len(want) {
		t.Fatalf("golden holds %d lines; want %d", len(lines), len(want))
	}
	for i, line := range lines {
		rec, err := decodeRecord(line)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		j, err := jobFromRecord(rec)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		w := want[i]
		if j.id != rec.ID || j.sub.Kind != w.kind || j.class.String() != w.class ||
			j.family != w.family || j.deadline.IsZero() == w.deadline {
			t.Errorf("line %d rebuilt as id=%s kind=%s class=%s family=%s deadline=%v; want %s %+v",
				i, j.id, j.sub.Kind, j.class, j.family, j.deadline, rec.ID, w)
		}
		if len(j.points) != len(w.nodes) {
			t.Fatalf("line %d expanded to %d points; want %d", i, len(j.points), len(w.nodes))
		}
		for k, p := range j.points {
			if p.nodes != w.nodes[k] || p.key == "" {
				t.Errorf("line %d point %d = nodes %d key %q; want nodes %d and a key", i, k, p.nodes, p.key, w.nodes[k])
			}
		}
		if w.kind == kindRun && j.points[0].key != runKey {
			t.Errorf("replayed run keyed %s; want the submission's key %s", j.points[0].key, runKey)
		}
	}
}

// TestParentFixturesLoad pins the bytes on disk across the move to one
// frame codec: parent-entry.rmr and parent-journal.wal were written by
// the daemon built from the commit before it (a finished run, then a
// run killed -9 mid-flight). Both must load, and re-framing each
// payload must reproduce the parent's bytes exactly.
func TestParentFixturesLoad(t *testing.T) {
	entry, err := os.ReadFile(filepath.Join("testdata", "parent-entry.rmr"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := decodeEntry(entry)
	if err != nil {
		t.Fatalf("parent entry: %v", err)
	}
	if res.LatencyCycles <= 0 {
		t.Fatalf("parent entry decoded to an empty result: %+v", res)
	}
	_, payload, _ := bytes.Cut(entry, []byte("\n"))
	if got := encodeEntry(payload); !bytes.Equal(got, entry) {
		t.Fatalf("re-framed entry differs from the parent's bytes:\n got: %s\nwant: %s", got, entry)
	}

	wal, err := os.ReadFile(filepath.Join("testdata", "parent-journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, line := range bytes.Split(bytes.TrimSuffix(wal, []byte("\n")), []byte("\n")) {
		rec, err := decodeRecord(line)
		if err != nil {
			t.Fatalf("parent journal line %q: %v", line, err)
		}
		ops = append(ops, rec.Op+" "+rec.ID)
		got, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if want := append(line, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("re-encoded record differs from the parent's bytes:\n got: %s\nwant: %s", got, want)
		}
	}
	if want := "accepted j000001,done j000001,accepted j000002"; strings.Join(ops, ",") != want {
		t.Fatalf("parent journal holds %v; want %s", ops, want)
	}
}
