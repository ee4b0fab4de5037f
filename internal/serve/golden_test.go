package serve

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

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

// parentIDs respells the IDs s minted in text the way the daemon that
// recorded the goldens did: "j" and the sequence number in six digits.
func parentIDs(s *Server, text string) string {
	minted := regexp.MustCompile(regexp.QuoteMeta(s.idPrefix) + `\d+`)
	return minted.ReplaceAllStringFunc(text, func(id string) string {
		n, _ := strconv.Atoi(strings.TrimPrefix(id, s.idPrefix))
		return fmt.Sprintf("j%06d", n)
	})
}

// checkGolden compares a job document s served with its golden, after
// normalising its wall-clock deadline and its IDs' boot prefix.
func checkGolden(t *testing.T, s *Server, name string, got []byte) {
	t.Helper()
	got = deadlineField.ReplaceAll(got, []byte(`"deadline_unix_ns": 0`))
	got = []byte(parentIDs(s, string(got)))
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

// stallConfig wedges at 72 PMs and completes at 4 and 12: without
// virtual channels the paper's 3:3:8 hierarchy at full load closes a
// wait-for cycle of IRI queues about 190 cycles in, while the smaller
// rings run out the schedule.
func stallConfig() ringmesh.Config {
	return ringmesh.Config{
		Network:    "ring",
		Nodes:      72,
		LineBytes:  32,
		Workload:   ringmesh.Workload{R: 1, C: 1, T: 16, ReadProb: 0.7},
		Seed:       5,
		UnsafeNoVC: true,
	}
}

func stallOptions() *ringmesh.RunOptions {
	return &ringmesh.RunOptions{WarmupCycles: 500, BatchCycles: 4000, Batches: 2,
		WatchdogCycles: 3000, FailOnStall: true}
}

// TestWireGoldenRun pins the run job document in each terminal shape.
func TestWireGoldenRun(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	req := runRequest{Config: testConfig(), Options: testOptions(), DeadlineMS: 60_000}
	checkGolden(t, s, "run-done", submitFinal(t, ts.URL, "/v1/runs", req))
	checkGolden(t, s, "run-cached", submitFinal(t, ts.URL, "/v1/runs", req))

	req = runRequest{Config: testConfig(), Options: testOptions(), Fidelity: "analytic"}
	checkGolden(t, s, "run-analytic", submitFinal(t, ts.URL, "/v1/runs", req))

	cfg := testConfig()
	cfg.Seed = 43
	auto := submitFinal(t, ts.URL, "/v1/runs",
		runRequest{Config: cfg, Options: testOptions(), Fidelity: "auto"})
	checkGolden(t, s, "run-auto", auto)
	checkGolden(t, s, "run-auto-upgrade", awaitRaw(t, ts.URL, decodeDoc(t, auto).Upgrade))

	checkGolden(t, s, "run-failed", submitFinal(t, ts.URL, "/v1/runs",
		runRequest{Config: stallConfig(), Options: stallOptions()}))
}

// TestWireGoldenSweep pins the sweep job document in the shapes a
// simulating daemon produces.
func TestWireGoldenSweep(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	req := sweepRequest{Config: testConfig(), Sizes: []int{25, 16}, Options: testOptions()}
	checkGolden(t, s, "sweep-done", submitFinal(t, ts.URL, "/v1/sweeps", req))
	checkGolden(t, s, "sweep-cached", submitFinal(t, ts.URL, "/v1/sweeps", req))

	req.Fidelity = "analytic"
	checkGolden(t, s, "sweep-analytic", submitFinal(t, ts.URL, "/v1/sweeps", req))

	// 16 is cached exactly, 9 and 36 are not: the auto answer mixes an
	// exact point with analytic ones.
	req = sweepRequest{Config: testConfig(), Sizes: []int{36, 16, 9}, Options: testOptions(), Fidelity: "auto"}
	auto := submitFinal(t, ts.URL, "/v1/sweeps", req)
	checkGolden(t, s, "sweep-auto", auto)
	awaitRaw(t, ts.URL, decodeDoc(t, auto).Upgrade)
}

// TestLocalSweepDegradesOnFailedPoint: a size that fails at run time
// (here: stalls) is classified in point_errors and the other sizes come
// back, where the sweep used to fail wholesale at the first bad size.
// Its golden is the one recorded after the point-list job, not before.
func TestLocalSweepDegradesOnFailedPoint(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	cfg := stallConfig()
	cfg.Nodes = 0
	raw := submitFinal(t, ts.URL, "/v1/sweeps",
		sweepRequest{Config: cfg, Sizes: []int{12, 72, 4}, Options: stallOptions()})
	var v JobView
	mustUnmarshal(t, raw, &v)
	if v.State != JobDone || !v.Degraded {
		t.Fatalf("state=%s degraded=%v error=%+v; want done and degraded", v.State, v.Degraded, v.Error)
	}
	if len(v.Points) != 2 || v.Points[0].Nodes != 4 || v.Points[1].Nodes != 12 {
		t.Fatalf("points = %+v; want sizes 4 and 12", v.Points)
	}
	if len(v.PointErrors) != 1 || v.PointErrors[0].Nodes != 72 {
		t.Fatalf("point_errors = %+v; want exactly size 72", v.PointErrors)
	}
	if pe := v.PointErrors[0].Error; pe.Kind != "stall" || pe.Status != http.StatusUnprocessableEntity || pe.Stall == nil {
		t.Fatalf("point error = %+v; want a stall with its diagnosis", pe)
	}
	checkGolden(t, s, "sweep-degraded-local", raw)
}

// TestSweepDegradedPointsMatchSingleRuns: when a sweep's points spread
// over two workers and one of them fails, each surviving point carries
// exactly the result a standalone run of its size gives on a fresh
// daemon, so a degraded answer never mixes up which size measured what.
func TestSweepDegradedPointsMatchSingleRuns(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	cfg := stallConfig()
	cfg.Nodes = 0
	var v JobView
	mustUnmarshal(t, submitFinal(t, ts.URL, "/v1/sweeps",
		sweepRequest{Config: cfg, Sizes: []int{4, 72, 12}, Options: stallOptions()}), &v)
	if v.State != JobDone || !v.Degraded || len(v.Points) != 2 || len(v.PointErrors) != 1 {
		t.Fatalf("state=%s degraded=%v points=%d point_errors=%d; want done, degraded, 2 points and 1 point error",
			v.State, v.Degraded, len(v.Points), len(v.PointErrors))
	}

	_, fresh := newTestServer(t, Options{Workers: 1})
	for _, p := range v.Points {
		one := stallConfig()
		one.Nodes = p.Nodes
		var rv JobView
		mustUnmarshal(t, submitFinal(t, fresh.URL, "/v1/runs",
			runRequest{Config: one, Options: stallOptions()}), &rv)
		if rv.State != JobDone || rv.Result == nil {
			t.Fatalf("single run at %d nodes: state=%s error=%+v", p.Nodes, rv.State, rv.Error)
		}
		if !reflect.DeepEqual(p.Result, *rv.Result) {
			t.Fatalf("sweep point %d = %+v; single run = %+v", p.Nodes, p.Result, *rv.Result)
		}
		if p.Attempts != 1 {
			t.Fatalf("sweep point %d attempts = %d; want 1", p.Nodes, p.Attempts)
		}
	}
}

// TestSweepAllPointsFailed: a sweep whose every size fails is failed
// wholesale, classified by the point's stall, with no points and the
// failure reported in point_errors.
func TestSweepAllPointsFailed(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	cfg := stallConfig()
	cfg.Nodes = 0
	var v JobView
	mustUnmarshal(t, submitFinal(t, ts.URL, "/v1/sweeps",
		sweepRequest{Config: cfg, Sizes: []int{72}, Options: stallOptions()}), &v)
	if v.State != JobFailed || v.Degraded || len(v.Points) != 0 || len(v.PointErrors) != 1 {
		t.Fatalf("state=%s degraded=%v points=%d point_errors=%d; want failed with one point error",
			v.State, v.Degraded, len(v.Points), len(v.PointErrors))
	}
	if v.Error == nil || v.Error.Kind != "stall" || v.Error.Status != http.StatusUnprocessableEntity {
		t.Fatalf("job error = %+v; want the point's stall", v.Error)
	}
	if pe := v.PointErrors[0]; pe.Nodes != 72 || pe.Error == nil || pe.Error.Kind != "stall" {
		t.Fatalf("point error = %+v; want size 72 classified as a stall", pe)
	}
}

// TestWireGoldenSweepFailed pins the document of a sweep whose every
// point failed.
func TestWireGoldenSweepFailed(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	cfg := stallConfig()
	cfg.Nodes = 0
	checkGolden(t, s, "sweep-failed", submitFinal(t, ts.URL, "/v1/sweeps",
		sweepRequest{Config: cfg, Sizes: []int{72}, Options: stallOptions()}))
}

// TestWireGoldenBatch pins the batch job document in each terminal
// shape.
func TestWireGoldenBatch(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	var runs []batchRunRequest
	for i := range 3 {
		cfg := testConfig()
		cfg.Seed = uint64(200 + i%2) // entries 0 and 2 share a cache key
		runs = append(runs, batchRunRequest{Config: cfg, Options: testOptions()})
	}
	req := batchRequest{Runs: runs}
	checkGolden(t, s, "batch-done", submitFinal(t, ts.URL, "/v1/batch", req))
	checkGolden(t, s, "batch-cached", submitFinal(t, ts.URL, "/v1/batch", req))

	stall := batchRunRequest{Config: stallConfig(), Options: stallOptions()}
	checkGolden(t, s, "batch-degraded", submitFinal(t, ts.URL, "/v1/batch",
		batchRequest{Runs: []batchRunRequest{runs[0], stall}, DeadlineMS: 60_000}))
	checkGolden(t, s, "batch-failed", submitFinal(t, ts.URL, "/v1/batch",
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
	checkGolden(t, s, "batch-auto", auto)
	checkGolden(t, s, "batch-auto-upgrade", awaitRaw(t, ts.URL, decodeDoc(t, auto).Upgrade))
}

// TestJournalGoldenAcceptedLines pins the accepted record the journal
// writes for each job kind, byte for byte: it is what a daemon started
// after a crash has to read back, whichever version wrote it.
func TestJournalGoldenAcceptedLines(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 1, JournalDir: dir})

	submitFinal(t, ts.URL, "/v1/runs",
		runRequest{Config: testConfig(), Options: testOptions(), DeadlineMS: 60_000})
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
		// The checksum covers the ID and the deadline, so the line is
		// re-framed around their normalised values.
		rec.ID = parentIDs(s, rec.ID)
		if rec.Deadline != 0 {
			rec.Deadline = 1
		}
		if line, err = encodeRecord(rec); err != nil {
			t.Fatal(err)
		}
		got = append(got, line...)
	}
	if n := strings.Count(string(got), "\n"); n != 3 {
		t.Fatalf("journal holds %d accepted records; want 3:\n%s", n, got)
	}
	checkGolden(t, s, "journal-accepted", got)
}

// TestJournalGoldenLinesReplay feeds the accepted lines an earlier
// binary wrote (the run and sweep lines were recorded before the
// point-list job) through replay's decoder and expand: a journal from before an
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
		kind, family string
		deadline     bool
		nodes        []int // per point, in document order
	}{
		{kindRun, "mesh", true, []int{0}},
		{kindSweep, "mesh", false, []int{16, 25}},
		{kindBatch, "batch", false, []int{0, 0}},
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
		if j.id != rec.ID || j.sub.Kind != w.kind || j.family != w.family || j.deadline.IsZero() == w.deadline {
			t.Errorf("line %d rebuilt as id=%s kind=%s family=%s deadline=%v; want %s %+v",
				i, j.id, j.sub.Kind, j.family, j.deadline, rec.ID, w)
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

// TestJournalFaultPlanRecordQuarantined: journal-fault-plan.wal is a
// batch record an older daemon wrote for a request with a fault plan,
// copied byte for byte from the accepted-lines golden of its day. This
// daemon has no fault plans, and running the rest of the record would
// answer the client's job ID with a fault-free result: a wrong answer.
// So replay quarantines the line as it stands and never runs it, while
// the fault-free records around it decode, re-encode to their own bytes
// and replay as before.
func TestJournalFaultPlanRecordQuarantined(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "journal-fault-plan.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRecord(bytes.TrimSuffix(old, []byte("\n"))); err == nil || !strings.Contains(err.Error(), "fault_plan") {
		t.Fatalf("decoding the old fault-plan record: err = %v; want one naming fault_plan", err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "journal-accepted.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(golden, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		rec, err := decodeRecord(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		if got, err := encodeRecord(rec); err != nil || !bytes.Equal(got, line) {
			t.Fatalf("golden line re-encodes to %q (%v); want its own bytes %q", got, err, line)
		}
	}

	parent, err := os.ReadFile(filepath.Join("testdata", "parent-journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), append(old, parent...), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Workers: 1, JournalDir: dir})
	if _, ok := s.lookup("j000003"); ok {
		t.Fatal("the fault-plan record was replayed as a job")
	}
	if _, ok := s.lookup("j000002"); !ok {
		t.Fatal("parent journal's unfinished j000002 not replayed under its ID")
	}
	kept, err := os.ReadFile(filepath.Join(dir, quarantineDir, "line-000001.rec"))
	if err != nil || !bytes.Equal(kept, old) {
		t.Fatalf("quarantined line = %q (%v); want the record's bytes", kept, err)
	}
	if !strings.Contains(getMetrics(t, ts.URL), "ringmeshd_journal_quarantined_total 1") {
		t.Error("metrics do not count the quarantined record")
	}
	// The replayed parent run is long: cancel it rather than wait it out.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(ctx)
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

	// Replayed, the unfinished j000002 keeps its ID, and a job admitted
	// after it gets another.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Workers: 1, JournalDir: dir})
	if _, ok := s.lookup("j000002"); !ok {
		t.Fatal("parent journal's unfinished j000002 not replayed under its ID")
	}
	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: testConfig(), Options: testOptions()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST after the replay = %d: %s", resp.StatusCode, raw)
	}
	if id := decodeDoc(t, raw).ID; id == "j000002" {
		t.Fatalf("job admitted after the replay took the replayed job's ID %s", id)
	}
	// The replayed run is long: cancel it rather than wait it out.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(ctx)
}
