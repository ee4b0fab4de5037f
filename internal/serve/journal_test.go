package serve

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ringmesh/internal/metrics"
)

func discardLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func openTestJournal(t *testing.T, dir string) *jobJournal {
	t.Helper()
	jl, err := openJournal(dir, &metrics.Registry{}, discardLog())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.close() })
	return jl
}

func TestJournalRecordRoundtrip(t *testing.T) {
	cfg := testConfig()
	opt := *testOptions()
	rec := journalRecord{
		Op:       opAccepted,
		ID:       "j000042",
		Kind:     kindRun,
		Class:    "background",
		Deadline: time.Now().Add(time.Minute).UnixNano(),
		Config:   &cfg,
		Options:  &opt,
	}
	line, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(line, []byte("\n")) {
		t.Fatal("encoded record missing newline terminator")
	}
	got, err := decodeRecord(bytes.TrimSuffix(line, []byte("\n")))
	if err != nil {
		t.Fatalf("decode own encoding: %v", err)
	}
	if got.Op != rec.Op || got.ID != rec.ID || got.Kind != rec.Kind ||
		got.Class != rec.Class || got.Deadline != rec.Deadline {
		t.Fatalf("roundtrip = %+v; want %+v", got, rec)
	}
	if got.Config == nil || *got.Config != cfg {
		t.Fatalf("roundtrip config = %+v; want %+v", got.Config, cfg)
	}
	// Beyond json.Marshal, framing a record costs one allocation.
	payload := []byte(`{"op":"done","id":"j000042"}`)
	if n := testing.AllocsPerRun(100, func() {
		_ = append(sealFrame(journalVersion, ' ', payload), '\n')
	}); n != 1 {
		t.Fatalf("framing a record allocates %v times; want 1", n)
	}
}

func TestJournalDecodeRejectsCorruption(t *testing.T) {
	cfg := testConfig()
	valid, err := encodeRecord(journalRecord{Op: opAccepted, ID: "j000001", Kind: kindRun, Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	valid = bytes.TrimSuffix(valid, []byte("\n"))

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-3] ^= 0x20 // payload byte: checksum must catch it

	cases := map[string][]byte{
		"empty":          nil,
		"garbage":        []byte("not a journal line"),
		"bad version":    []byte("ringmeshd-wal-v0 abc 3 {}"),
		"missing fields": []byte(journalVersion + " deadbeef"),
		"bad length":     []byte(journalVersion + " deadbeef nope {}"),
		"truncated":      valid[:len(valid)-4],
		"flipped byte":   flipped,
	}
	for name, line := range cases {
		if _, err := decodeRecord(line); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := decodeRecord(valid); err != nil {
		t.Fatalf("control line rejected: %v", err)
	}
}

// TestJournalReplayCompletesUnfinishedJobs is the crash-recovery
// acceptance scenario, with the "crash" simulated by hand-writing the
// WAL a kill -9 would leave behind: three accepted-but-unfinished jobs
// (a run, a sweep, a batch) plus one already-done job. A fresh server
// must replay the three under their original IDs and classes, complete
// them, and resume its ID counter past every journaled ID.
func TestJournalReplayCompletesUnfinishedJobs(t *testing.T) {
	leakCheck(t, 2)
	dir := t.TempDir()
	jl := openTestJournal(t, dir)

	cfg, opt := testConfig(), *testOptions()
	sweepCfg := cfg
	sweepCfg.Nodes = 0 // sweeps take nodes from sizes
	jl.append(journalRecord{Op: opAccepted, ID: "j000001", Kind: kindRun,
		Class: "interactive", Config: &cfg, Options: &opt})
	jl.append(journalRecord{Op: opAccepted, ID: "j000002", Kind: kindSweep,
		Class: "background", Config: &sweepCfg, Options: &opt, Sizes: []int{4, 16}})
	jl.append(journalRecord{Op: opRunning, ID: "j000002"}) // as older daemons wrote; still unfinished
	jl.append(journalRecord{Op: opAccepted, ID: "j000003", Kind: kindBatch,
		Class: "batch", Entries: []batchEntry{{Config: cfg, Options: opt}}})
	jl.append(journalRecord{Op: opAccepted, ID: "j000004", Kind: kindRun,
		Class: "interactive", Config: &cfg, Options: &opt})
	jl.append(journalRecord{Op: opDone, ID: "j000004"})
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{JournalDir: dir})

	for id, wantClass := range map[string]string{
		"j000001": "interactive", "j000002": "background", "j000003": "batch",
	} {
		d := awaitJob(t, ts.URL, id, false)
		if d.ID != id {
			t.Fatalf("replayed job answered as %s; want original ID %s", d.ID, id)
		}
		if d.Class != wantClass {
			t.Fatalf("job %s class = %q; want %q preserved across restart", id, d.Class, wantClass)
		}
	}
	// The finished job was not resurrected.
	resp, err := http.Get(ts.URL + "/v1/jobs/j000004")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("done-before-crash job GET = %d; want 404 (not replayed)", resp.StatusCode)
	}

	// The ID counter resumed past every journaled ID.
	resp2, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: cfg, Options: &opt})
	if resp2.StatusCode != http.StatusOK && resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("post-replay POST = %d: %s", resp2.StatusCode, raw)
	}
	if id := decodeDoc(t, raw).ID; id != "j000005" {
		t.Fatalf("post-replay job ID = %s; want j000005", id)
	}

	mtext := getMetrics(t, ts.URL)
	if !strings.Contains(mtext, "ringmeshd_journal_replayed_total 3") {
		t.Error("metrics missing ringmeshd_journal_replayed_total 3")
	}
}

// TestJournalReplayQuarantinesCorruptLines: corrupt or torn lines are
// moved aside and counted; the rest of the log still replays. Never a
// panic — the decoder is additionally fuzzed for that.
func TestJournalReplayQuarantinesCorruptLines(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir)
	cfg, opt := testConfig(), *testOptions()
	jl.append(journalRecord{Op: opAccepted, ID: "j000001", Kind: kindRun,
		Class: "interactive", Config: &cfg, Options: &opt})
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}

	// Splice garbage between valid records, plus a torn final line —
	// what a crash mid-write leaves.
	path := filepath.Join(dir, journalFile)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn, err := encodeRecord(journalRecord{Op: opAccepted, ID: "j000002", Kind: kindRun,
		Config: &cfg, Options: &opt})
	if err != nil {
		t.Fatal(err)
	}
	var spliced bytes.Buffer
	spliced.WriteString("totally corrupt line\n")
	spliced.Write(good)
	spliced.Write(torn[:len(torn)/2])
	spliced.WriteString("\n")
	if err := os.WriteFile(path, spliced.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{JournalDir: dir})
	d := awaitJob(t, ts.URL, "j000001", false)
	if d.ID != "j000001" {
		t.Fatalf("surviving job = %s; want j000001", d.ID)
	}
	qfiles, err := filepath.Glob(filepath.Join(dir, quarantineDir, "*.rec"))
	if err != nil {
		t.Fatal(err)
	}
	if len(qfiles) != 2 {
		t.Fatalf("quarantined files = %v; want 2 (garbage + torn)", qfiles)
	}
	if !strings.Contains(getMetrics(t, ts.URL), "ringmeshd_journal_quarantined_total 2") {
		t.Error("metrics missing quarantined counter")
	}
}

// TestJournalReplayExpiredDeadline: a job whose deadline passed during
// the outage is terminated with the deadline taxonomy, not re-run.
func TestJournalReplayExpiredDeadline(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir)
	cfg, opt := testConfig(), *testOptions()
	jl.append(journalRecord{Op: opAccepted, ID: "j000001", Kind: kindRun,
		Class: "interactive", Deadline: time.Now().Add(-time.Second).UnixNano(),
		Config: &cfg, Options: &opt})
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{JournalDir: dir})
	d := awaitJob(t, ts.URL, "j000001", true)
	if d.State != JobFailed || d.Error == nil || d.Error.Kind != "deadline" {
		t.Fatalf("expired replayed job = %s %+v; want failed/deadline", d.State, d.Error)
	}
}

// TestJournalLifecycleRecords: a job served normally leaves a
// journal whose replay finds nothing unfinished.
func TestJournalLifecycleRecords(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{JournalDir: dir})

	resp, raw := postJSON(t, ts.URL+"/v1/runs", runRequest{Config: testConfig(), Options: testOptions()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", resp.StatusCode, raw)
	}
	awaitJob(t, ts.URL, decodeDoc(t, raw).ID, false)
	ctx, cancel := drainCtx()
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// accepted + done; starting to run appends nothing.
	if mtext := getMetrics(t, ts.URL); !strings.Contains(mtext, "ringmeshd_journal_appends_total 2\n") {
		t.Error("one completed job: want ringmeshd_journal_appends_total 2")
	}

	jl := openTestJournal(t, dir)
	unfinished, maxID, err := jl.replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(unfinished) != 0 {
		t.Fatalf("unfinished after clean drain = %+v; want none", unfinished)
	}
	if maxID != 1 {
		t.Fatalf("maxID = %d; want 1", maxID)
	}
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir)
	cfg, opt := testConfig(), *testOptions()
	recs := make([]journalRecord, 3)
	for i := range recs {
		recs[i] = journalRecord{Op: opAccepted, ID: []string{"j000001", "j000002", "j000003"}[i],
			Kind: kindRun, Config: &cfg, Options: &opt}
		jl.append(recs[i])
	}
	jl.append(journalRecord{Op: opDone, ID: "j000001"})
	jl.append(journalRecord{Op: opFailed, ID: "j000003"})

	before, err := os.Stat(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.compact([]journalRecord{recs[1]}); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction grew the log: %d -> %d bytes", before.Size(), after.Size())
	}

	unfinished, _, err := jl.replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(unfinished) != 1 || unfinished[0].ID != "j000002" {
		t.Fatalf("post-compaction unfinished = %+v; want only j000002", unfinished)
	}

	// The handle survived the rename: appends still land in the new log.
	jl.append(journalRecord{Op: opRunning, ID: "j000002"})
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), opRunning) {
		t.Fatal("append after compaction missing from the log")
	}
	if n := jl.compactions.Value(); n != 1 {
		t.Fatalf("compactions = %d; want 1", n)
	}

	// A journal that cannot write counts the failure and carries on.
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}
	jl.append(journalRecord{Op: opDone, ID: "j000002"})
	if n := jl.appendErrs.Value(); n != 1 {
		t.Fatalf("append errors after close = %d; want 1", n)
	}
}

// TestJournalStackPreservesGoldenBytes: the full admission + journal
// stack must not perturb simulation results — the same config yields
// byte-identical result documents with and without it.
func TestJournalStackPreservesGoldenBytes(t *testing.T) {
	run := func(opt Options) []byte {
		t.Helper()
		_, ts := newTestServer(t, opt)
		resp, raw := postJSON(t, ts.URL+"/v1/runs",
			runRequest{Config: testConfig(), Options: testOptions(), Class: "batch", DeadlineMS: 60_000})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST = %d: %s", resp.StatusCode, raw)
		}
		return awaitJob(t, ts.URL, decodeDoc(t, raw).ID, false).Result
	}
	plain := run(Options{})
	journaled := run(Options{JournalDir: t.TempDir()})
	if len(plain) == 0 || !bytes.Equal(plain, journaled) {
		t.Fatalf("results differ with the journal stack enabled:\nplain:     %s\njournaled: %s", plain, journaled)
	}
}

func drainCtx() (ctx context.Context, cancel context.CancelFunc) {
	return context.WithTimeout(context.Background(), 10*time.Second)
}
