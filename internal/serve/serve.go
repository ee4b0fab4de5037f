package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"slices"
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
	// Workers is the job pool size: how many jobs execute at once
	// (default GOMAXPROCS). Every served point runs the serial engine —
	// the job, not the tick, is the unit that scales with cores.
	Workers int
	// QueueDepth bounds total pending jobs across all priority classes;
	// at the bound an arriving job sheds the newest queued job of a
	// less urgent class, or is shed itself with 503 + Retry-After when
	// nothing less urgent is queued (default 64).
	QueueDepth int
	// JournalDir, when non-empty, enables the crash-safe job journal:
	// an fsync'd append-only log of job state transitions, replayed on
	// startup so accepted-but-unfinished jobs survive kill -9 and
	// re-enqueue under their original IDs and classes. Empty disables
	// journaling (accepted jobs die with the process).
	JournalDir string
	// CacheEntries bounds the result cache (default 256).
	CacheEntries int
	// CacheDir, when non-empty, adds a durable disk tier under the
	// in-memory result cache: one checksummed file per cache key,
	// written atomically, so results survive restarts (and even
	// kill -9) and N replicas can share one mounted directory. Empty
	// keeps the cache memory-only.
	CacheDir string
	// WorkerAddrs switches the server into coordinator mode: instead
	// of simulating locally, it fans work out to the worker daemons at
	// these base URLs (e.g. "http://10.0.0.7:8080") with retries and
	// per-worker circuit breakers, and merges partial failures into
	// degraded responses. Empty means normal
	// (simulating) mode.
	WorkerAddrs []string
	// Rate is the per-client request budget in requests/second
	// (0 disables rate limiting).
	Rate float64
	// Burst is the per-client burst size (default 2*Rate, minimum 1).
	Burst int
	// MaxBody bounds request bodies in bytes (default 1 MiB).
	MaxBody int64
	// JobTimeout bounds each job's wall-clock time (0 = none).
	JobTimeout time.Duration
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
	limit *rateLimiter
	// coord is non-nil in coordinator mode (Options.WorkerAddrs set):
	// jobs are dispatched to worker daemons instead of simulated here.
	coord *coordinator

	baseCtx context.Context
	cancel  context.CancelFunc

	// adm is the priority admission layer: per-class queues under one
	// shared bound, drained by a weighted scheduler. journal, when
	// non-nil, is the crash-safe WAL of job state transitions.
	adm     *admitter
	journal *jobJournal
	wait    func()

	submitMu sync.Mutex // orders draining checks, journal appends and enqueues
	draining bool

	jobsMu   sync.Mutex
	jobs     map[string]*job
	jobOrder []string
	nextID   int64

	accepted    *metrics.Counter
	rejected    *metrics.Counter
	rateLimited *metrics.Counter
	completed   *metrics.Counter
	failed      *metrics.Counter

	// Per-class admission outcomes, indexed by class.
	admitted    [numClasses]*metrics.Counter
	shed        [numClasses]*metrics.Counter
	deadlineRej [numClasses]*metrics.Counter
	deadlineExp [numClasses]*metrics.Counter

	// Multi-fidelity serving counters: requests by requested mode,
	// inline analytic answers, enqueued upgrade jobs, shed-pressure
	// degrades, and auto→exact fallbacks (see fidelity.go).
	fidRequests        map[string]*metrics.Counter
	fidAnalyticAnswers *metrics.Counter
	fidUpgrades        *metrics.Counter
	fidDegraded        *metrics.Counter
	fidFallback        *metrics.Counter

	log *slog.Logger

	// histMu guards hists, the label-fanned histograms registered on
	// first use (see histogram).
	histMu sync.Mutex
	hists  map[string]*metrics.Histogram
}

// secondsBuckets spans 1ms to ~4.4 minutes in x4 steps — wide enough
// for both queue waits under load and multi-minute simulations.
var secondsBuckets = metrics.ExpBuckets(0.001, 4, 10)

// New builds a Server and starts its worker pool. It fails only when
// an explicitly requested capability cannot be provided (a CacheDir
// that cannot be created) — durability asked for and silently not
// delivered would be worse than not starting.
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
	if opt.Burst < 1 {
		opt.Burst = int(2 * opt.Rate)
	}
	if opt.MaxBody < 1 {
		opt.MaxBody = 1 << 20
	}
	if opt.Logger == nil {
		opt.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
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
		opt:     opt,
		reg:     reg,
		cache:   newResultCache(opt.CacheEntries, disk, reg),
		limit:   newRateLimiter(opt.Rate, opt.Burst),
		baseCtx: ctx,
		cancel:  cancel,
		adm:     newAdmitter(opt.QueueDepth, defaultClassWeights, reg),
		jobs:    map[string]*job{},
		log:     opt.Logger,
		hists:   map[string]*metrics.Histogram{},

		accepted:    reg.Counter("ringmeshd_jobs_accepted_total", metrics.Labels{}),
		rejected:    reg.Counter("ringmeshd_jobs_rejected_total", metrics.Labels{}),
		rateLimited: reg.Counter("ringmeshd_requests_rate_limited_total", metrics.Labels{}),
		completed:   reg.Counter("ringmeshd_jobs_completed_total", metrics.Labels{}),
		failed:      reg.Counter("ringmeshd_jobs_failed_total", metrics.Labels{}),
	}
	for c := class(0); c < numClasses; c++ {
		l := metrics.Labels{Class: c.String()}
		s.admitted[c] = reg.Counter("ringmeshd_admit_total", l)
		s.shed[c] = reg.Counter("ringmeshd_shed_total", l)
		s.deadlineRej[c] = reg.Counter("ringmeshd_deadline_rejected_total", l)
		s.deadlineExp[c] = reg.Counter("ringmeshd_deadline_expired_total", l)
	}
	s.fidRequests = map[string]*metrics.Counter{}
	for _, f := range []string{fidelity.Simulate, fidelity.Analytic, fidelity.Auto} {
		s.fidRequests[f] = reg.Counter("ringmeshd_fidelity_requests_total", metrics.Labels{Fidelity: f})
	}
	s.fidAnalyticAnswers = reg.Counter("ringmeshd_fidelity_analytic_answers_total", metrics.Labels{})
	s.fidUpgrades = reg.Counter("ringmeshd_fidelity_upgrades_total", metrics.Labels{})
	s.fidDegraded = reg.Counter("ringmeshd_fidelity_degraded_total", metrics.Labels{})
	s.fidFallback = reg.Counter("ringmeshd_fidelity_fallback_total", metrics.Labels{})
	reg.Gauge("ringmeshd_queue_depth", metrics.Labels{}, func() float64 {
		return float64(s.adm.depth())
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
	if len(opt.WorkerAddrs) > 0 {
		s.coord = newCoordinator(opt.WorkerAddrs, reg, opt.Logger)
		// The probe loop re-admits ejected workers; it stops when the
		// base context dies (drain completion or drain-deadline cancel).
		go s.coord.probeLoop(s.baseCtx)
	}
	// The journal replays before the workers start: unfinished jobs
	// from before a crash re-enter their class queues under their
	// original IDs, and only then does execution begin.
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
			for {
				j, ok := s.adm.next()
				if !ok {
					return
				}
				s.execute(j)
			}
		}()
	}
	s.wait = wg.Wait
	return s, nil
}

// replayJournal re-admits every unfinished journaled job, preserving
// IDs, classes and deadlines, and compacts the log down to what is
// still live. Records that decode but cannot be rebuilt into a job
// (e.g. a config the current version rejects) are journaled as failed
// rather than dropped, so they never resurrect again.
func (s *Server) replayJournal() error {
	unfinished, maxID, err := s.journal.replay()
	if err != nil {
		return err
	}
	s.jobsMu.Lock()
	if maxID > s.nextID {
		s.nextID = maxID
	}
	s.jobsMu.Unlock()
	var live []journalRecord
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
		s.adm.forceEnqueue(j)
		s.journal.replayed.Inc()
		live = append(live, rec)
		s.log.Info("job replayed from journal", "job", j.id,
			"kind", j.sub.Kind, "class", j.class.String())
	}
	if err := s.journal.compact(live); err != nil {
		// Compaction is an optimization; a journal that still holds
		// already-terminal records replays correctly next time too.
		s.log.Warn("journal compaction failed", "err", err)
	}
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
		s.adm.close()
		s.log.Info("drain started", "queued", s.adm.depth())
	}
	s.submitMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wait()
		close(done)
	}()
	select {
	case <-done:
		// Every job has finished; cancel the base context so background
		// machinery (the coordinator's health-probe loop) stops too.
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

// admit runs the admission pipeline for a job: drain check, a place in
// the job table (and with it an ID), the journaled acceptance (before
// the queues ever see the job, so a crash can never find a running job
// the journal has not accepted), then class-queue admission. A shed
// victim — a queued lower-class job evicted to make room — is failed
// and journaled here; a rejection of j itself takes it out of the table
// again and journals a terminal record so the accepted record never
// resurrects it.
func (s *Server) admit(j *job) error {
	s.submitMu.Lock()
	defer s.submitMu.Unlock()
	if s.draining {
		return errDraining
	}
	s.register(j)
	// Stamped before the queues see the job: a worker may pick it up the
	// instant it enters its class queue, and reads this to reconstruct
	// the queue-wait span.
	j.enqueuedAt = time.Now()
	if s.journal != nil {
		s.journal.append(acceptedRecord(j))
		j.journaled = true
	}
	victim, err := s.adm.enqueue(j)
	if err != nil {
		s.unregister(j)
		s.journalTerminal(j, true)
		var se *shedError
		if errors.As(err, &se) {
			s.shed[j.class].Inc()
		}
		return err
	}
	if victim != nil {
		s.shed[victim.class].Inc()
		s.abort(victim, &shedError{
			class:  victim.class,
			reason: fmt.Sprintf("evicted by %s arrival under full queue", j.class),
		})
		s.log.Warn("job shed", "job", victim.id, "class", victim.class.String(),
			"evicted_by", j.id)
	}
	s.admitted[j.class].Inc()
	return nil
}

// abort fails a queued job that will never run.
func (s *Server) abort(j *job, err error) {
	s.failed.Inc()
	s.journalTerminal(j, true)
	j.finish(nil, err)
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
		s.jobsMu.Lock()
		var live []journalRecord
		for _, id := range s.jobOrder {
			if lj, ok := s.jobs[id]; ok && lj.journaled && !lj.finished() {
				live = append(live, acceptedRecord(lj))
			}
		}
		s.jobsMu.Unlock()
		if err := s.journal.compact(live); err != nil {
			s.log.Warn("journal compaction failed", "err", err)
		}
	}
}

// register stores a job for polling, dropping the oldest finished
// documents past the retention bound; live jobs are skipped, never
// dropped, so one long job does not pin everything admitted after it.
// A job arriving without an ID gets a fresh one; journal replay
// pre-assigns the original ID (the counter has already been advanced
// past every journaled ID).
func (s *Server) register(j *job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if j.id == "" {
		s.nextID++
		j.id = fmt.Sprintf("j%06d", s.nextID)
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	for len(s.jobOrder) > jobRetain {
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

// unregister removes a job the queues refused.
func (s *Server) unregister(j *job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	delete(s.jobs, j.id)
	if i := slices.Index(s.jobOrder, j.id); i >= 0 {
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

// histogram returns the registered histogram for (name, labels),
// registering it on first use. The registry panics on duplicate
// registration, so every dynamically-labeled series goes through this
// lookup-or-register layer.
func (s *Server) histogram(name string, l metrics.Labels, buckets []float64) *metrics.Histogram {
	key := name + l.String()
	s.histMu.Lock()
	defer s.histMu.Unlock()
	if h, ok := s.hists[key]; ok {
		return h
	}
	h := s.reg.Histogram(name, l, buckets)
	s.hists[key] = h
	return h
}

// execute is the one executor: it resolves every point of a job
// through the result cache (single-flight: concurrent identical points
// compute once and share the result), computing a missed point by
// simulating it here or, in coordinator mode, by dispatching it to the
// worker fleet — same cache, same key, same result. A simulating
// daemon works through its points one at a time (cross-job parallelism
// comes from the worker pool, and burning the whole pool on one sweep
// or batch would defeat the admission classes); a coordinator keeps
// twice the fleet size in flight, which keeps every worker's queue fed
// without flooding a small fleet with a large grid all at once. One
// dead worker or one doomed point degrades the response instead of
// voiding it (see job.finish).
func (s *Server) execute(j *job) {
	// A deadline that expired while the job sat in queue terminates it
	// here, before it occupies the worker for any simulation time.
	if !j.deadline.IsZero() && time.Now().After(j.deadline) {
		s.deadlineExp[j.class].Inc()
		s.abort(j, errDeadlineExpired)
		s.log.Warn("job expired in queue", "job", j.id, "kind", j.sub.Kind,
			"class", j.class.String(), "deadline", j.deadline)
		return
	}
	// Reconstruct the queue-wait span: the interval between queue
	// admission and a worker picking the job up.
	if !j.enqueuedAt.IsZero() {
		wait := time.Since(j.enqueuedAt)
		j.tr.Record(obs.SpanRecord{Name: "queue-wait", Start: j.enqueuedAt, Dur: wait})
		s.histogram("ringmeshd_job_queue_wait_seconds",
			metrics.Labels{Family: j.family}, secondsBuckets).Observe(wait.Seconds())
		s.log.Info("job started", "job", j.id, "kind", j.sub.Kind,
			"class", j.class.String(), "family", j.family, "queue_wait", wait)
	}
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()
	// The execution context stacks the server's per-job timeout and the
	// client's absolute deadline; whichever is tighter cancels the run,
	// and in coordinator mode the remaining budget rides along to the
	// dispatched worker.
	ctx := s.baseCtx
	if s.opt.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opt.JobTimeout)
		defer cancel()
	}
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}
	ctx = ctxWithClass(ctx, j.class)
	runStart := time.Now()

	width := 1
	if s.coord != nil {
		width = 2 * len(s.coord.workers)
	}
	// A point the loop never reaches (the context died first) counts as
	// failed, not as an empty success.
	outs := make([]outcome, len(j.points))
	for i := range outs {
		outs[i].err = context.Canceled
	}
	pool.ForEach(ctx, width, len(j.points), func(i int) error {
		outs[i] = s.resolve(ctx, j, j.points[i])
		j.pointsDone.Add(1)
		return nil
	})
	// A context that died under a failing point fails the job wholesale:
	// a canceled or out-of-time job is an aborted attempt, not a degraded
	// answer.
	var err error
	if ctx.Err() != nil && slices.ContainsFunc(outs, func(o outcome) bool { return o.err != nil }) {
		err = fmt.Errorf("%s canceled: %w", j.sub.Kind, ctx.Err())
	}
	failed := j.finish(outs, err)

	runDur := time.Since(runStart)
	how := "done"
	if failed {
		how = j.view().Error.Kind
		s.failed.Inc()
	} else {
		s.completed.Inc()
	}
	s.journalTerminal(j, failed)
	j.tr.Record(obs.SpanRecord{
		Name: "run", Start: runStart, Dur: runDur,
		Attrs: []obs.Attr{{Key: "outcome", Value: how}},
	})
	s.histogram("ringmeshd_job_run_seconds",
		metrics.Labels{Family: j.family, Outcome: how}, secondsBuckets).Observe(runDur.Seconds())
	if failed {
		s.log.Warn("job failed", "job", j.id, "kind", j.sub.Kind,
			"family", j.family, "outcome", how, "dur", runDur)
		return
	}
	// Whatever the analytic tier can answer never queues (answerInline).
	s.histogram("ringmeshd_fidelity_answer_seconds",
		metrics.Labels{Fidelity: fidelity.Simulate}, fidelityBuckets).Observe(runDur.Seconds())
	s.log.Info("job finished", "job", j.id, "kind", j.sub.Kind,
		"family", j.family, "dur", runDur)
}

// pointBuckets spans 1ms to ~2 minutes in x1.5 steps. The admission
// cost estimate sums one p95 per point of a job, so the quantile's
// error — a bucket's width — multiplies by the point count: the x4
// steps of secondsBuckets would price a batch up to four times over.
var pointBuckets = metrics.ExpBuckets(0.001, 1.5, 30)

// resolve obtains one point's result through the cache, timing each
// computation it actually performs into the per-point duration
// histogram of the point's own network — the admission cost estimate's
// input (see estimateCost).
func (s *Server) resolve(ctx context.Context, j *job, p point) outcome {
	o := outcome{attempts: 1}
	o.res, o.cached, o.err = s.cache.do(ctx, p.key, j.tr, func() (res ringmesh.Result, err error) {
		start := time.Now()
		if s.coord != nil {
			res, o.attempts, err = s.coord.runPoint(ctx, p.cfg, p.opt, j.tr)
		} else {
			res, err = s.simulate(ctx, j, p)
		}
		if err == nil {
			s.histogram("ringmeshd_point_run_seconds",
				metrics.Labels{Family: p.cfg.Network}, pointBuckets).Observe(time.Since(start).Seconds())
		}
		return res, err
	})
	if o.err != nil {
		if s.coord != nil {
			s.coord.pointsFailed.Inc()
		}
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
	// Analytic-fidelity work routes to the closed-form estimator: no
	// system is built, no ticks run, and the result comes back labeled
	// with its recorded error bound. Its refusals (unsupported
	// features) are configuration errors — the client asked for a tier
	// that cannot answer this config.
	if cfg.Fidelity == fidelity.Analytic {
		res, err := ringmesh.Estimate(cfg, p.opt)
		if err != nil {
			return ringmesh.Result{}, &configError{err}
		}
		return res, nil
	}
	// The server owns the machine split, not the client: the pool runs
	// Workers jobs at once, so every point runs the serial engine
	// whatever workers value the request carries. Sound to override —
	// Workers is execution-only and excluded from the cache key.
	cfg.Workers = 1
	sys, err := ringmesh.NewSystem(cfg)
	if err != nil {
		return ringmesh.Result{}, &configError{err}
	}
	if len(j.points) == 1 {
		cycles := p.opt.WarmupCycles + p.opt.BatchCycles*int64(p.opt.Batches)
		j.totalTicks.Store(cycles * sys.TicksPerCycle())
		sys.OnCycle(func(tick int64, _ uint64) { j.tick.Store(tick) })
	}
	return sys.RunContext(ctx, p.opt)
}
