package serve

import (
	"context"
	"crypto/rand"
	"encoding/base32"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"ringmesh"
	"ringmesh/internal/fidelity"
	"ringmesh/internal/metrics"
	"ringmesh/internal/obs"
	"ringmesh/internal/pool"
)

// jobRetain bounds the number of finished job documents kept for
// polling; the oldest finished jobs are dropped past it. In-flight
// jobs are never dropped.
const jobRetain = 1024

// Options configures a Server. The zero value selects the defaults
// noted per field.
type Options struct {
	// Workers is how many simulations run at once (default
	// GOMAXPROCS), and how many jobs the pool executes at once. A sweep
	// or batch spreads its points over whichever of those simulation
	// slots are idle. Every served point runs the serial engine — the
	// point, not the tick, is the unit that scales with cores.
	Workers int
	// QueueDepth bounds the pending jobs, served first in, first out;
	// an arrival at the bound is shed with 503 + Retry-After, and a
	// queued job is never evicted (default 64). Jobs replayed from the
	// journal are queued past the bound, never shed.
	QueueDepth int
	// JournalDir, when non-empty, enables the crash-safe job journal:
	// an fsync'd append-only log of job state transitions, replayed on
	// startup so accepted-but-unfinished jobs survive kill -9 and
	// re-enqueue under their original IDs and deadlines. An auto
	// answer's upgrade job is best-effort and never journaled. Empty
	// disables journaling (accepted jobs die with the process).
	JournalDir string
	// CacheEntries bounds the result cache (default 256).
	CacheEntries int
	// CacheDir, when non-empty, adds a durable disk tier under the
	// in-memory result cache: one checksummed file per cache key,
	// written atomically, so results survive restarts (and even
	// kill -9) and N replicas can share one mounted directory. Empty
	// keeps the cache memory-only.
	CacheDir string
	// MaxBody bounds request bodies in bytes (default 1 MiB).
	MaxBody int64
	// Logger receives structured job-lifecycle events with request and
	// job IDs (nil: events are discarded).
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof on the
	// Handler. Off by default: the profile endpoints expose goroutine
	// stacks and heap contents, so they are opt-in.
	EnablePprof bool
}

// errDraining rejects submissions once Drain has begun; the HTTP
// layer maps it to 503 (shed rejections carry their own *shedError).
var errDraining = errors.New("serve: draining, not accepting jobs")

// Server executes simulation jobs from a bounded queue on a fixed
// worker pool, deduplicating identical work through the
// content-addressed result cache. Build one with New, mount Handler
// on an http.Server, and Drain on shutdown.
type Server struct {
	opt   Options
	reg   *metrics.Registry
	cache *resultCache

	baseCtx context.Context
	cancel  context.CancelFunc

	// queue is the one FIFO of admitted jobs, QueueDepth deep (deeper
	// after a journal replay, see replayJournal). admit is its only
	// sender and sheds at the bound under submitMu, so a send never
	// blocks; Drain closes it. journal, when non-nil, is the crash-safe
	// WAL of job state transitions.
	queue   chan *job
	journal *jobJournal
	wait    func()

	// sims holds one token per simulation in flight, Workers at most.
	// Goroutines blocked on it are served first in, first out, so a
	// freed slot goes to the longest waiter whichever job it is from.
	sims chan struct{}

	submitMu sync.Mutex // orders draining checks, journal appends, sends and the close
	draining bool

	jobsMu   sync.Mutex
	jobs     map[string]*job
	jobOrder []string
	// idPrefix is chosen once per boot, so a minted ID (idPrefix plus
	// nextID) names one job across restarts and never has the j%06d
	// shape older daemons journaled; see register.
	idPrefix string
	nextID   int64

	accepted  *metrics.Counter
	rejected  *metrics.Counter
	completed *metrics.Counter
	failed    *metrics.Counter

	// Admission outcomes: jobs queued, arrivals shed at the bound, and
	// queued jobs whose deadline passed before a worker took them.
	admitted    *metrics.Counter
	shed        *metrics.Counter
	deadlineExp *metrics.Counter

	// Multi-fidelity serving counters: requests by requested mode,
	// inline analytic answers, enqueued upgrade jobs, and auto→exact
	// fallbacks (see fidelity.go).
	fidRequests        map[string]*metrics.Counter
	fidAnalyticAnswers *metrics.Counter
	fidUpgrades        *metrics.Counter
	fidFallback        *metrics.Counter

	log *slog.Logger
}

// discardLogger is the logger a Server or disk store runs with when
// given none: its level is above every record's, so a log call returns
// at the handler's Enabled check without formatting anything.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
}

// secondsBuckets spans 1ms to ~4.4 minutes in x4 steps — wide enough
// for both queue waits under load and multi-minute simulations.
var secondsBuckets = metrics.ExpBuckets(0.001, 4, 10)

// New builds a Server and starts its worker pool. It fails only when
// an explicitly requested capability cannot be provided (a CacheDir
// that cannot be created) — durability asked for and silently not
// delivered would be worse than not starting — or when the system's
// random source cannot supply the boot's ID prefix.
func New(opt Options) (*Server, error) {
	if opt.Workers < 1 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.QueueDepth < 1 {
		opt.QueueDepth = 64
	}
	if opt.CacheEntries < 1 {
		opt.CacheEntries = 256
	}
	if opt.MaxBody < 1 {
		opt.MaxBody = 1 << 20
	}
	if opt.Logger == nil {
		opt.Logger = discardLogger()
	}
	// Eight base32 characters: 40 random bits per boot.
	var boot [5]byte
	if _, err := rand.Read(boot[:]); err != nil {
		return nil, err
	}
	reg := &metrics.Registry{}
	var disk *diskStore
	if opt.CacheDir != "" {
		var err error
		if disk, err = newDiskStore(opt.CacheDir, reg, opt.Logger); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:      opt,
		reg:      reg,
		cache:    newResultCache(opt.CacheEntries, disk, reg),
		baseCtx:  ctx,
		cancel:   cancel,
		queue:    make(chan *job, opt.QueueDepth),
		sims:     make(chan struct{}, opt.Workers),
		jobs:     map[string]*job{},
		idPrefix: base32.StdEncoding.EncodeToString(boot[:]) + "-",
		log:      opt.Logger,

		accepted:  reg.Counter("ringmeshd_jobs_accepted_total", metrics.Labels{}),
		rejected:  reg.Counter("ringmeshd_jobs_rejected_total", metrics.Labels{}),
		completed: reg.Counter("ringmeshd_jobs_completed_total", metrics.Labels{}),
		failed:    reg.Counter("ringmeshd_jobs_failed_total", metrics.Labels{}),

		admitted:    reg.Counter("ringmeshd_admit_total", metrics.Labels{}),
		shed:        reg.Counter("ringmeshd_shed_total", metrics.Labels{}),
		deadlineExp: reg.Counter("ringmeshd_deadline_expired_total", metrics.Labels{}),
	}
	s.fidRequests = map[string]*metrics.Counter{}
	for _, f := range []string{fidelity.Simulate, fidelity.Analytic, fidelity.Auto} {
		s.fidRequests[f] = reg.Counter("ringmeshd_fidelity_requests_total", metrics.Labels{Fidelity: f})
	}
	s.fidAnalyticAnswers = reg.Counter("ringmeshd_fidelity_analytic_answers_total", metrics.Labels{})
	s.fidUpgrades = reg.Counter("ringmeshd_fidelity_upgrades_total", metrics.Labels{})
	s.fidFallback = reg.Counter("ringmeshd_fidelity_fallback_total", metrics.Labels{})
	reg.Gauge("ringmeshd_queue_depth", metrics.Labels{}, func() float64 {
		return float64(len(s.queue))
	})
	// Go runtime health, sampled at scrape time. ReadMemStats is a
	// stop-the-world call measured in microseconds — fine at scrape
	// cadence, which is why these are gauges rather than a background
	// sampler.
	reg.Gauge("go_goroutines", metrics.Labels{}, func() float64 {
		return float64(runtime.NumGoroutine())
	})
	reg.Gauge("go_heap_alloc_bytes", metrics.Labels{}, func() float64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	})
	reg.Gauge("go_gc_pause_total_seconds", metrics.Labels{}, func() float64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.PauseTotalNs) / 1e9
	})
	// The journal replays before the workers start: unfinished jobs
	// from before a crash re-enter the queue under their original IDs,
	// and only then does execution begin.
	if opt.JournalDir != "" {
		journal, err := openJournal(opt.JournalDir, reg, opt.Logger)
		if err != nil {
			return nil, err
		}
		s.journal = journal
		if err := s.replayJournal(); err != nil {
			return nil, err
		}
	}
	var wg sync.WaitGroup
	for range opt.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range s.queue {
				s.execute(j)
			}
		}()
	}
	s.wait = wg.Wait
	return s, nil
}

// replayJournal re-admits every unfinished journaled job, preserving
// IDs and deadlines, and compacts the log down to what is
// still live. Records that decode but cannot be rebuilt into a job
// (e.g. a config the current version rejects) are journaled as failed
// rather than dropped, so they never resurrect again.
func (s *Server) replayJournal() error {
	unfinished, err := s.journal.replay()
	if err != nil {
		return err
	}
	// These jobs were admitted before the crash, so they pass the bound:
	// shedding them on a depth check would turn a restart into silent
	// data loss. The queue holds them all on top of QueueDepth.
	s.queue = make(chan *job, s.opt.QueueDepth+len(unfinished))
	for _, rec := range unfinished {
		j, jerr := jobFromRecord(rec)
		if jerr != nil {
			s.log.Warn("journal record not replayable", "id", rec.ID, "err", jerr)
			s.journal.append(journalRecord{Op: opFailed, ID: rec.ID})
			continue
		}
		j.journaled = true
		s.register(j)
		j.enqueuedAt = time.Now()
		s.queue <- j
		s.journal.replayed.Inc()
		s.log.Info("job replayed from journal", "job", j.id, "kind", j.sub.Kind)
	}
	s.compactJournal()
	return nil
}

// Drain stops accepting new jobs (submissions get 503), lets queued
// and in-flight jobs finish, and returns when the pool is idle. If
// ctx expires first, the remaining jobs are canceled (they fail with
// a "canceled" job error), the pool is still waited out, and
// ctx.Err() is returned. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.submitMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // the executors finish what is queued, then return
		s.log.Info("drain started", "queued", len(s.queue))
	}
	s.submitMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancel()
		s.closeJournal()
		s.log.Info("drain complete")
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		s.closeJournal()
		s.log.Warn("drain deadline expired; jobs canceled")
		return ctx.Err()
	}
}

// closeJournal releases the journal's append handle once no worker can
// write another record.
func (s *Server) closeJournal() {
	if s.journal != nil {
		if err := s.journal.close(); err != nil {
			s.log.Warn("journal close failed", "err", err)
		}
	}
}

// drainingNow reports whether Drain has been initiated.
func (s *Server) drainingNow() bool {
	s.submitMu.Lock()
	defer s.submitMu.Unlock()
	return s.draining
}

// admit runs the admission pipeline for a job: drain check, the queue
// bound, a place in the job table (and with it an ID), the journaled
// acceptance of a durable job (before the queue ever sees the job, so a
// crash can never find a running job the journal has not accepted),
// then the queue. A refusal leaves no trace: no ID, no table entry, no
// journal record. A job admitted not durable is never journaled: a
// crash loses it as a shed would.
func (s *Server) admit(j *job, durable bool) error {
	s.submitMu.Lock()
	defer s.submitMu.Unlock()
	if s.draining {
		return errDraining
	}
	if len(s.queue) >= s.opt.QueueDepth {
		s.shed.Inc()
		return &shedError{bound: s.opt.QueueDepth}
	}
	s.register(j)
	// Stamped before the queue sees the job: a worker may pick it up the
	// instant it is queued, and reads this to reconstruct the queue-wait
	// span.
	j.enqueuedAt = time.Now()
	if durable && s.journal != nil {
		s.journal.append(acceptedRecord(j))
		j.journaled = true
	}
	s.queue <- j
	s.admitted.Inc()
	return nil
}

// journalTerminal records a job's final transition and compacts the
// log when enough terminal records have accumulated.
func (s *Server) journalTerminal(j *job, failed bool) {
	if s.journal == nil || !j.journaled {
		return
	}
	op := opDone
	if failed {
		op = opFailed
	}
	s.journal.append(journalRecord{Op: op, ID: j.id})
	if s.journal.needsCompaction() {
		s.compactJournal()
	}
}

// compactJournal rewrites the journal down to the accepted records of
// the journaled jobs not yet finished, in admission order. During
// replay the job table holds exactly the replayed jobs, each carrying
// its record as its submission, so the rewrite keeps their bytes.
func (s *Server) compactJournal() {
	s.jobsMu.Lock()
	var live []journalRecord
	for _, id := range s.jobOrder {
		if j, ok := s.jobs[id]; ok && j.journaled && !j.finished() {
			live = append(live, acceptedRecord(j))
		}
	}
	s.jobsMu.Unlock()
	if err := s.journal.compact(live); err != nil {
		// Compaction is an optimization; a journal that still holds
		// already-terminal records replays correctly next time too.
		s.log.Warn("journal compaction failed", "err", err)
	}
}

// register stores a job for polling, dropping the oldest finished
// documents past the retention bound; live jobs are skipped, never
// dropped, so one long job does not pin everything admitted after it.
// The common case, a finished oldest job, drops the front in O(1); only
// a live one at the front costs a scan.
// A job arriving without an ID gets the next one of this boot; a
// replayed job keeps the ID it was journaled under.
func (s *Server) register(j *job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if j.id == "" {
		s.nextID++
		// One allocation, not fmt's two: every request mints an ID.
		j.id = string(strconv.AppendInt([]byte(s.idPrefix), s.nextID, 10))
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	for len(s.jobOrder) > jobRetain {
		if old, ok := s.jobs[s.jobOrder[0]]; !ok || old.finished() {
			delete(s.jobs, s.jobOrder[0])
			s.jobOrder[0] = "" // the backing array outlives this slice
			s.jobOrder = s.jobOrder[1:]
			continue
		}
		i := slices.IndexFunc(s.jobOrder, func(id string) bool {
			old, ok := s.jobs[id]
			return !ok || old.finished()
		})
		if i < 0 {
			break // every retained job is live
		}
		delete(s.jobs, s.jobOrder[i])
		s.jobOrder = slices.Delete(s.jobOrder, i, i+1)
	}
}

// lookup finds a job by id.
func (s *Server) lookup(id string) (*job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// execute is the one executor: it resolves every point of a job
// through the result cache (single-flight: concurrent identical points
// compute once and share the result), simulating a missed point here;
// a point that names the analytic tier is estimated instead.
// It fans a job's points out Workers wide, and every simulation waits
// for a slot (see resolve): a sweep or batch uses the slots other jobs
// leave idle, and a job arriving behind it waits for one of its points,
// not all of them. Points that share a cache key resolve in index order
// on one goroutine, as a serial loop would: the first computes and each
// repeat is a hit on it. One doomed point degrades the response instead
// of voiding it (see verdict).
func (s *Server) execute(j *job) {
	// A deadline that expired while the job sat in queue terminates it
	// here, before it occupies the worker for any simulation time.
	if !j.deadline.IsZero() && time.Now().After(j.deadline) {
		s.deadlineExp.Inc()
		s.failed.Inc()
		j.finish(nil, errDeadlineExpired)
		s.journalTerminal(j, true)
		s.log.Warn("job expired in queue", "job", j.id, "kind", j.sub.Kind,
			"deadline", j.deadline)
		return
	}
	// Reconstruct the queue-wait span: the interval between queue
	// admission and a worker picking the job up.
	if !j.enqueuedAt.IsZero() {
		wait := time.Since(j.enqueuedAt)
		j.tr.Record(obs.SpanRecord{Name: "queue-wait", Start: j.enqueuedAt, Dur: wait})
		s.reg.Histogram("ringmeshd_job_queue_wait_seconds",
			metrics.Labels{Family: j.family}, secondsBuckets).Observe(wait.Seconds())
		s.log.Info("job started", "job", j.id, "kind", j.sub.Kind,
			"family", j.family, "queue_wait", wait)
	}
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()
	// The client's absolute deadline cancels the run through its
	// context.
	ctx := s.baseCtx
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}
	runStart := time.Now()

	// A point the loop never reaches (the context died first) counts as
	// failed, not as an empty success.
	outs := make([]outcome, len(j.points))
	for i := range outs {
		outs[i].err = context.Canceled
	}
	groups := keyGroups(j.points)
	pool.ForEach(ctx, s.opt.Workers, len(groups), func(g int) error {
		for _, i := range groups[g] {
			if ctx.Err() != nil {
				break
			}
			outs[i] = s.resolve(ctx, j, j.points[i])
			j.pointsDone.Add(1)
		}
		return nil
	})
	// A context that died under a failing point fails the job wholesale:
	// a canceled or out-of-time job is an aborted attempt, not a degraded
	// answer.
	var err error
	if ctx.Err() != nil && slices.ContainsFunc(outs, func(o outcome) bool { return o.err != nil }) {
		err = fmt.Errorf("%s canceled: %w", j.sub.Kind, ctx.Err())
	}
	// The job is counted, traced and timed before finish publishes its
	// state, so a client that sees it done finds its metrics too; the
	// journal's fsync comes after, off that client's path.
	failed, _, je := verdict(outs, err)
	runDur := time.Since(runStart)
	how := "done"
	if failed {
		how = je.Kind
		s.failed.Inc()
	} else {
		s.completed.Inc()
	}
	j.tr.Record(obs.SpanRecord{
		Name: "run", Start: runStart, Dur: runDur,
		Attrs: []obs.Attr{{Key: "outcome", Value: how}},
	})
	s.reg.Histogram("ringmeshd_job_run_seconds",
		metrics.Labels{Family: j.family, Outcome: how}, secondsBuckets).Observe(runDur.Seconds())
	if !failed {
		// Whatever the analytic tier can answer never queues (answerInline).
		s.reg.Histogram("ringmeshd_fidelity_answer_seconds",
			metrics.Labels{Fidelity: fidelity.Simulate}, fidelityBuckets).Observe(runDur.Seconds())
	}
	j.finish(outs, err)
	s.journalTerminal(j, failed)
	if failed {
		s.log.Warn("job failed", "job", j.id, "kind", j.sub.Kind,
			"family", j.family, "outcome", how, "dur", runDur)
		return
	}
	s.log.Info("job finished", "job", j.id, "kind", j.sub.Kind,
		"family", j.family, "dur", runDur)
}

// keyGroups lists, for each distinct cache key in order of first
// occurrence, the indexes of the points that carry it, ascending.
func keyGroups(points []point) [][]int {
	at := make(map[string]int, len(points))
	var groups [][]int
	for i, p := range points {
		g, ok := at[p.key]
		if !ok {
			g = len(groups)
			at[p.key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// resolve obtains one point's result. A point that names the analytic
// tier is estimated here, as at submission, and never touches the
// cache; any other point goes through the cache, and a miss is
// simulated in one of the Workers simulation slots. Only the
// simulation holds a slot: an estimate, a hit or a coalesced wait
// never takes one.
func (s *Server) resolve(ctx context.Context, j *job, p point) outcome {
	var o outcome
	if p.cfg.Fidelity == fidelity.Analytic {
		o.res, o.err = estimate(&p)
	} else {
		o.res, o.cached, o.err = s.cache.do(ctx, p.key, j.tr, func() (ringmesh.Result, error) {
			select {
			case s.sims <- struct{}{}:
			case <-ctx.Done():
				return ringmesh.Result{}, ctx.Err()
			}
			defer func() { <-s.sims }()
			return s.simulate(ctx, j, p)
		})
	}
	if o.err != nil {
		s.log.Warn("point failed", "job", j.id, "nodes", p.cfg.Nodes,
			"kind", classify(o.err).Kind, "err", o.err)
	}
	return o
}

// simulate builds and runs one point's system. A single-point job's
// progress atomics are wired to the engine's per-cycle hook so
// watchers see live completion fractions.
func (s *Server) simulate(ctx context.Context, j *job, p point) (ringmesh.Result, error) {
	cfg := p.cfg
	// The server owns the machine split, not the client: Workers
	// simulations run at once, so every point runs the serial engine
	// whatever workers value the request carries. Sound to override —
	// Workers is execution-only and excluded from the cache key.
	cfg.Workers = 1
	sys, err := ringmesh.NewSystem(cfg)
	if err != nil {
		return ringmesh.Result{}, &configError{err}
	}
	if len(j.points) == 1 {
		j.totalCycles.Store(p.opt.WarmupCycles + p.opt.BatchCycles*int64(p.opt.Batches))
		sys.OnCycle(func(cycle int64, _ uint64) { j.cycle.Store(cycle) })
	}
	return sys.RunContext(ctx, p.opt)
}
