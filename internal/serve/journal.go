package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ringmesh"
	"ringmesh/internal/metrics"
)

// journalVersion prefixes every record; bump it whenever the payload
// schema changes incompatibly so old logs are quarantined, not
// misparsed.
const journalVersion = "ringmeshd-wal-v1"

// Journal ops. A job is "unfinished" — and replayed on restart — when
// it has an accepted record and no terminal one. opRunning is never
// written: logs left by older daemons carry it, and replay decodes and
// skips it.
const (
	opAccepted = "accepted"
	opRunning  = "running"
	opDone     = "done"
	opFailed   = "failed"
)

// journalRecord is one WAL line's payload. accepted records carry the
// full submission (enough to rebuild and re-run the job: a job keeps
// its submission in this shape, and expand reads it); later
// transitions carry only the ID and op. Results are deliberately NOT
// journaled — the disk cache tier already persists them, and a
// replayed job whose work finished before the crash re-resolves
// through the cache without re-simulating.
type journalRecord struct {
	Op   string `json:"op"`
	ID   string `json:"id"`
	Kind string `json:"kind,omitempty"`
	// LegacyClass is the priority class older daemons wrote. Nothing
	// reads it and new records leave it empty; it is decoded only so an
	// old record re-encodes to its own bytes.
	LegacyClass string               `json:"class,omitempty"`
	Deadline    int64                `json:"deadline_unix_ns,omitempty"`
	Config      *ringmesh.Config     `json:"config,omitempty"`
	Options     *ringmesh.RunOptions `json:"options,omitempty"`
	Sizes       []int                `json:"sizes,omitempty"`
	Entries     []batchEntry         `json:"entries,omitempty"`
	// auto marks a run or sweep submitted under the auto policy (never
	// journaled, like batchEntry.auto).
	auto bool
}

// encodeRecord frames one record as a single self-checking line (the
// frame of frame.go with a space separator, newline-terminated):
//
//	ringmeshd-wal-v1 <sha256(payload) hex> <len(payload)> <payload>\n
//
// The payload is compact JSON, which cannot contain a raw newline, so
// a torn write only ever corrupts the final line and the replay
// scanner resynchronizes on the next one.
func encodeRecord(rec journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return append(sealFrame(journalVersion, ' ', payload), '\n'), nil
}

// decodeRecord parses one journal line (without trailing newline),
// verifying version, length and checksum before trusting a byte of
// JSON. It must reject arbitrary corruption with an error — never
// panic — and is fuzzed to hold that contract. The payload decodes
// strictly, as a request does: a record naming a field this daemon
// lacks (an older daemon's fault plan) asked for something it can no
// longer run, so replay quarantines it instead of running the rest.
func decodeRecord(line []byte) (journalRecord, error) {
	var rec journalRecord
	payload, err := openFrame(line, journalVersion, ' ')
	if err != nil {
		return rec, err
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return rec, fmt.Errorf("payload decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return rec, fmt.Errorf("payload decode: data after the record")
	}
	if rec.Op == "" || rec.ID == "" {
		return rec, fmt.Errorf("record missing op or id")
	}
	return rec, nil
}

// journalFile names the log inside the journal directory.
const journalFile = "journal.wal"

// compactEvery bounds journal growth: after this many terminal
// records the log is rewritten down to just the live jobs.
const compactEvery = 1024

// jobJournal is the crash-safety log: an append-only file of
// checksummed state-transition records, fsync'd per append so an
// accepted job survives kill -9. Replay on startup re-enqueues
// unfinished jobs under their original IDs; compaction
// rewrites the log to only the records that still matter, with the
// same publishAtomic as the disk cache.
type jobJournal struct {
	mu        sync.Mutex
	dir       string
	f         *os.File
	log       *slog.Logger
	terminals int // terminal records appended since last compaction

	appends     *metrics.Counter
	appendErrs  *metrics.Counter
	replayed    *metrics.Counter
	quarantined *metrics.Counter
	compactions *metrics.Counter
}

// openJournal opens (creating if needed) the journal rooted at dir and
// registers its instruments in reg. The caller replays before
// accepting new work.
func openJournal(dir string, reg *metrics.Registry, log *slog.Logger) (*jobJournal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: journal at %s: %w", dir, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: journal open: %w", err)
	}
	return &jobJournal{
		dir: dir,
		f:   f,
		log: log,

		appends:     reg.Counter("ringmeshd_journal_appends_total", metrics.Labels{}),
		appendErrs:  reg.Counter("ringmeshd_journal_append_errors_total", metrics.Labels{}),
		replayed:    reg.Counter("ringmeshd_journal_replayed_total", metrics.Labels{}),
		quarantined: reg.Counter("ringmeshd_journal_quarantined_total", metrics.Labels{}),
		compactions: reg.Counter("ringmeshd_journal_compactions_total", metrics.Labels{}),
	}, nil
}

// append durably writes one record (write + fsync under the lock, so
// records land in transition order). Journal IO failure must never
// take down serving: it is counted and logged, and the job proceeds
// with reduced crash-safety.
func (w *jobJournal) append(rec journalRecord) {
	line, err := encodeRecord(rec)
	if err != nil {
		w.appendErrs.Inc()
		w.log.Error("journal encode failed", "id", rec.ID, "op", rec.Op, "err", err)
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err = w.f.Write(line); err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		w.appendErrs.Inc()
		w.log.Error("journal append failed", "id", rec.ID, "op", rec.Op, "err", err)
		return
	}
	w.appends.Inc()
	if rec.Op == opDone || rec.Op == opFailed {
		w.terminals++
	}
}

// needsCompaction reports whether enough terminal records have
// accumulated since the last rewrite to be worth reclaiming.
func (w *jobJournal) needsCompaction() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.terminals >= compactEvery
}

// replay scans the journal and returns the accepted records of jobs
// with no terminal record, in acceptance order. A corrupt or torn line
// is quarantined and scanning continues — one bad record never hides
// the rest of the log.
func (w *jobJournal) replay() (unfinished []journalRecord, err error) {
	f, err := os.Open(filepath.Join(w.dir, journalFile))
	if err != nil {
		return nil, fmt.Errorf("serve: journal replay: %w", err)
	}
	defer f.Close()

	accepted := make(map[string]journalRecord)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, derr := decodeRecord(line)
		if derr != nil {
			w.quarantineLine(line, lineNo, derr)
			continue
		}
		switch rec.Op {
		case opAccepted:
			if _, dup := accepted[rec.ID]; !dup {
				accepted[rec.ID] = rec
				order = append(order, rec.ID)
			}
		case opDone, opFailed:
			delete(accepted, rec.ID)
		}
	}
	if serr := sc.Err(); serr != nil {
		return nil, fmt.Errorf("serve: journal scan: %w", serr)
	}
	for _, id := range order {
		if rec, ok := accepted[id]; ok {
			unfinished = append(unfinished, rec)
		}
	}
	return unfinished, nil
}

// quarantineLine preserves an un-decodable journal line for
// post-mortem inspection instead of silently dropping it.
func (w *jobJournal) quarantineLine(line []byte, lineNo int, cause error) {
	w.quarantined.Inc()
	qdir := filepath.Join(w.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		w.log.Error("journal quarantine dir failed", "err", err)
		return
	}
	name := filepath.Join(qdir, fmt.Sprintf("line-%06d.rec", lineNo))
	if err := os.WriteFile(name, append(append([]byte(nil), line...), '\n'), 0o644); err != nil {
		w.log.Error("journal quarantine write failed", "err", err)
		return
	}
	w.log.Warn("journal record quarantined", "line", lineNo, "file", name, "cause", cause)
}

// compact rewrites the journal down to the accepted records of live
// (still queued or running) jobs — at most a queue's worth, so the new
// log is built in memory and published in one piece: a crash
// mid-compaction leaves either the complete old log or the complete
// new one, never a mix.
func (w *jobJournal) compact(live []journalRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var log []byte
	for _, rec := range live {
		line, err := encodeRecord(rec)
		if err != nil {
			return fmt.Errorf("serve: journal compact encode: %w", err)
		}
		log = append(log, line...)
	}
	path := filepath.Join(w.dir, journalFile)
	if err := publishAtomic(path, log); err != nil {
		return fmt.Errorf("serve: journal compact: %w", err)
	}
	// Reopen the append handle: the old descriptor points at the
	// now-unlinked previous log.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("serve: journal reopen: %w", err)
	}
	w.f.Close()
	w.f = f
	w.terminals = 0
	w.compactions.Inc()
	return nil
}

// close releases the append handle after a final fsync.
func (w *jobJournal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	w.f.Sync()
	err := w.f.Close()
	w.f = nil
	return err
}

// acceptedRecord builds the opAccepted record for a job — the one
// record that must carry everything needed to rebuild it after a
// crash: its submission and deadline.
func acceptedRecord(j *job) journalRecord {
	rec := j.sub
	rec.Op, rec.ID = opAccepted, j.id
	if !j.deadline.IsZero() {
		rec.Deadline = j.deadline.UnixNano()
	}
	return rec
}

// jobFromRecord rebuilds a job from its accepted record during replay,
// expanding the stored submission exactly as the endpoints do. Cache
// keys are recomputed rather than journaled — key derivation may
// evolve between versions and must stay authoritative.
func jobFromRecord(rec journalRecord) (*job, error) {
	points, family, err := expand(rec)
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", rec.ID, err)
	}
	j := newJob(rec.ID, rec, points, family)
	if rec.Deadline != 0 {
		j.deadline = time.Unix(0, rec.Deadline)
	}
	return j, nil
}
