package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ringmesh"
	"ringmesh/internal/obs"
)

// Job kinds: a single run, a size sweep, or a batch of runs submitted
// as one prioritized unit. The kind is the wire shape — how a
// submission expands into points and how the document renders them;
// everything in between works on the point list alone.
const (
	kindRun   = "run"
	kindSweep = "sweep"
	kindBatch = "batch"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	// JobQueued means the job is accepted but no worker has started it.
	JobQueued JobState = "queued"
	// JobRunning means a worker is simulating it.
	JobRunning JobState = "running"
	// JobDone means it finished with a result.
	JobDone JobState = "done"
	// JobFailed means it finished with an error.
	JobFailed JobState = "failed"
)

// JobError describes a failed job in the job document. Status carries
// the same taxonomy as cmd/ringmesh's exit codes, mapped onto HTTP:
// configuration errors are 400 (though most are caught synchronously
// at submission), stalls 422, timeouts 504, cancellation (drain) 503,
// and anything else 500.
type JobError struct {
	Status  int                      `json:"status"`
	Kind    string                   `json:"kind"`
	Message string                   `json:"message"`
	Stall   *ringmesh.StallDiagnosis `json:"stall,omitempty"`
}

// errConfig marks an error produced while constructing a system —
// a configuration problem by definition.
type configError struct{ err error }

func (e *configError) Error() string { return e.err.Error() }
func (e *configError) Unwrap() error { return e.err }

// errDeadlineExpired marks a job whose client deadline passed while it
// was still queued: it is failed without ever occupying a worker.
var errDeadlineExpired = errors.New("serve: deadline expired before execution")

// classify maps a run error onto the job-document error taxonomy. A
// coordinator dispatch error carries its own classification.
func classify(err error) *JobError {
	if err == nil {
		return nil
	}
	je := &JobError{Message: err.Error()}
	var ce *configError
	var se *shedError
	var de *dispatchError
	switch {
	case errors.As(err, &de):
		je.Status, je.Kind, je.Message = de.status, de.class, de.Error()
	case errors.As(err, &ce):
		je.Status, je.Kind = http.StatusBadRequest, "config"
	case errors.Is(err, ringmesh.ErrStalled):
		je.Status, je.Kind = http.StatusUnprocessableEntity, "stall"
		je.Stall = ringmesh.DiagnoseStall(err)
	case errors.Is(err, ringmesh.ErrTimeout):
		je.Status, je.Kind = http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, errDeadlineExpired), errors.Is(err, context.DeadlineExceeded):
		// A client deadline (or the server's JobTimeout) ran out — the
		// same meaning as an engine wall-clock timeout, surfaced under
		// its own kind so callers can tell "the run was slow" from "the
		// budget was short".
		je.Status, je.Kind = http.StatusGatewayTimeout, "deadline"
	case errors.As(err, &se):
		je.Status, je.Kind = http.StatusServiceUnavailable, "shed"
	case errors.Is(err, context.Canceled):
		je.Status, je.Kind = http.StatusServiceUnavailable, "canceled"
	default:
		je.Status, je.Kind = http.StatusInternalServerError, "runtime"
	}
	return je
}

// PointError is one failed point in a sweep's structured error report:
// the size that failed and its classified error. The sweep's completed
// points ride alongside in Points — a partial failure degrades the
// response, it does not void it.
type PointError struct {
	Nodes int       `json:"nodes"`
	Error *JobError `json:"error"`
}

// batchEntry is one run inside a batch job: a validated config plus
// its resolved options. The wire shape of POST /v1/batch items and the
// journaled shape are the same — cache keys are recomputed, never
// stored.
type batchEntry struct {
	Config  ringmesh.Config     `json:"config"`
	Options ringmesh.RunOptions `json:"options"`
	// auto marks an entry submitted under the auto policy (never
	// journaled: a replayed job goes straight to the queue).
	auto bool
}

// BatchItem is one entry's outcome in a batch job document: either a
// result or a classified error, in submission order.
type BatchItem struct {
	Index    int              `json:"index"`
	Topology string           `json:"topology,omitempty"`
	Cached   bool             `json:"cached,omitempty"`
	Result   *ringmesh.Result `json:"result,omitempty"`
	Error    *JobError        `json:"error,omitempty"`
}

// point is one resolved (Config, RunOptions) of a job, keyed once.
type point struct {
	cfg ringmesh.Config
	opt ringmesh.RunOptions
	key string // ringmesh.CacheKey(cfg, opt)
	// topo is the canonical geometry and nodes the size label, for the
	// documents that list their points (sweep points, batch items).
	topo  string
	nodes int
	// auto lets the point be answered analytically at submission, with
	// the exact result landing later through an upgrade job.
	auto bool
}

// outcome is what became of one point.
type outcome struct {
	res      ringmesh.Result
	cached   bool // replayed from the cache or a coalesced computation
	attempts int  // dispatches it took (1 unless a coordinator retried)
	err      error
}

// newPoint validates one configuration and schedule and keys it; where
// locates it in error messages (" at size 16", " at entry 3").
func newPoint(cfg ringmesh.Config, opt ringmesh.RunOptions, where string) (point, error) {
	if err := opt.Validate(); err != nil {
		return point{}, fmt.Errorf("invalid options%s: %w", where, err)
	}
	// The model's own validation message, verbatim — the same text
	// NewSystem would produce.
	key, err := ringmesh.CacheKey(cfg, opt)
	if err != nil {
		return point{}, fmt.Errorf("invalid config%s: %w", where, err)
	}
	return point{cfg: cfg, opt: opt, key: key}, nil
}

// expand resolves a submission — as an endpoint decoded it or replay
// read it back — into its points, every point validated up front, so a
// doomed job fails at submit with the model's message, not halfway
// through; family labels the job's metrics (a batch may mix networks,
// so it has its own). A run is one point; a sweep one per size, its
// topology re-derived from the node count, in ascending size order
// (the document's); a batch one per entry.
func expand(sub journalRecord) (points []point, family string, err error) {
	if sub.Kind == kindBatch {
		if len(sub.Entries) == 0 {
			return nil, "", errors.New("runs must hold at least one entry")
		}
		points = make([]point, len(sub.Entries))
		for i, e := range sub.Entries {
			if points[i], err = newPoint(e.Config, e.Options, fmt.Sprintf(" at entry %d", i)); err != nil {
				return nil, "", err
			}
			// Validated above, so the geometry resolves.
			points[i].topo, _, _ = ringmesh.CanonicalTopology(e.Config)
			points[i].auto = e.auto
		}
		return points, "batch", nil
	}
	if sub.Config == nil || sub.Options == nil {
		return nil, "", errors.New("missing config or options")
	}
	if sub.Kind != kindSweep {
		p, err := newPoint(*sub.Config, *sub.Options, "")
		p.auto = sub.auto
		return []point{p}, sub.Config.Network, err
	}
	if len(sub.Sizes) == 0 {
		return nil, "", errors.New("sizes must name at least one node count")
	}
	points = make([]point, len(sub.Sizes))
	for i, n := range sub.Sizes {
		cfg := *sub.Config
		cfg.Topology = ""
		cfg.Nodes = n
		if points[i], err = newPoint(cfg, *sub.Options, fmt.Sprintf(" at size %d", n)); err != nil {
			return nil, "", err
		}
		points[i].topo, _, _ = ringmesh.CanonicalTopology(cfg)
		points[i].nodes, points[i].auto = n, sub.auto
	}
	sort.SliceStable(points, func(a, b int) bool { return points[a].nodes < points[b].nodes })
	return points, sub.Config.Network, nil
}

// job is one accepted unit of work: a list of points and, once
// finished, one outcome per point.
type job struct {
	id string
	// sub is the submission, fidelity policy already resolved, in the
	// shape the journal's accepted record stores it; points is what
	// expand made of it.
	sub    journalRecord
	points []point
	family string // topology family, for metric labels

	// class is the admission priority; deadline, when set, is the
	// absolute wall-clock instant after which the client no longer wants
	// the answer (zero: no deadline).
	class    class
	deadline time.Time
	// journaled marks jobs whose accepted record landed in the WAL, so
	// terminal transitions know whether to journal too.
	journaled bool
	// allowDegrade permits answering the job analytically (with a
	// best-effort upgrade job) if admission would shed it: set only for
	// background-class runs whose client did not name a fidelity tier,
	// so an explicit "simulate" request is never silently downgraded.
	allowDegrade bool

	// Progress: finished points, plus — for a single-point job — engine
	// ticks out of totalTicks, fed by the engine's per-cycle hook (the
	// executing worker writes, watchers read, hence atomic).
	tick       atomic.Int64
	totalTicks atomic.Int64
	pointsDone atomic.Int64

	// tr is the job's lifecycle span timeline (validate, enqueue,
	// queue-wait, run, cache-store), served at GET /v1/jobs/{id}/trace.
	tr *obs.Trace
	// enqueuedAt timestamps queue admission so the executing worker can
	// reconstruct the queue-wait span and histogram observation.
	enqueuedAt time.Time

	mu        sync.Mutex
	state     JobState
	degraded  bool
	upgradeID string
	outcomes  []outcome     // index-aligned with points; nil until finished
	err       error         // job-level failure: shed, expired or canceled
	done      chan struct{} // closed on completion (done or failed)
}

// JobView is the job document served by GET /v1/jobs/{id} and
// embedded in submission responses.
type JobView struct {
	ID    string   `json:"id"`
	Kind  string   `json:"kind"`
	State JobState `json:"state"`
	// Class is the admission priority class the job was accepted under.
	Class string `json:"class"`
	// DeadlineUnixNS is the absolute client deadline, when one was set.
	DeadlineUnixNS int64 `json:"deadline_unix_ns,omitempty"`
	// Cached is true when the result was replayed from the cache (or a
	// coalesced concurrent computation) instead of simulated by this
	// job.
	Cached bool `json:"cached"`
	// Progress is the fraction of the schedule completed, in [0, 1].
	Progress float64               `json:"progress"`
	Result   *ringmesh.Result      `json:"result,omitempty"`
	Points   []ringmesh.SweepPoint `json:"points,omitempty"`
	// Degraded marks a response that is less than what was asked for: a
	// sweep or batch that completed with some points missing (Points
	// holds every size that succeeded and PointErrors classifies the
	// rest; a batch item carries its own error), or a background run
	// answered analytically under shed pressure.
	Degraded    bool         `json:"degraded,omitempty"`
	PointErrors []PointError `json:"point_errors,omitempty"`
	// UpgradeJobID names the background job enqueued to land the exact
	// result after an analytic-fidelity answer; poll it to upgrade.
	UpgradeJobID string `json:"upgrade_job_id,omitempty"`
	// Items holds a batch job's per-entry outcomes, in submission order.
	Items []BatchItem `json:"items,omitempty"`
	Error *JobError   `json:"error,omitempty"`
}

// traceSpans bounds each job's span timeline; spans past it are
// counted as dropped, never silently lost.
const traceSpans = 64

// newJob builds a queued job with a completion channel and a bounded
// span timeline.
func newJob(id string, sub journalRecord, points []point, family string) *job {
	return &job{
		id: id, sub: sub, points: points, family: family,
		state: JobQueued,
		done:  make(chan struct{}),
		tr:    obs.NewTrace(traceSpans),
	}
}

// progress returns the completed fraction of the job's schedule.
func (j *job) progress() float64 {
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	switch state {
	case JobDone, JobFailed:
		return 1
	case JobQueued:
		return 0
	}
	done := float64(j.pointsDone.Load())
	if total := j.totalTicks.Load(); total > 0 {
		done += float64(j.tick.Load()) / float64(total)
	}
	return min(1, done/float64(len(j.points)))
}

// view snapshots the job document, rendering the outcomes in the
// kind's wire shape: a run's result, a sweep's points and point
// errors, a batch's items.
func (j *job) view() JobView {
	p := j.progress()
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:           j.id,
		Kind:         j.sub.Kind,
		State:        j.state,
		Class:        j.class.String(),
		Degraded:     j.degraded,
		UpgradeJobID: j.upgradeID,
		Progress:     p,
		Error:        classify(j.err),
	}
	if !j.deadline.IsZero() {
		v.DeadlineUnixNS = j.deadline.UnixNano()
	}
	if j.outcomes == nil {
		return v
	}
	v.Cached = true
	var firstErr *JobError
	for i, o := range j.outcomes {
		pt := j.points[i]
		v.Cached = v.Cached && o.cached
		je := classify(o.err)
		if firstErr == nil {
			firstErr = je
		}
		res := o.res
		switch j.sub.Kind {
		case kindBatch:
			it := BatchItem{Index: i, Error: je}
			if je == nil {
				it.Topology, it.Cached, it.Result = pt.topo, o.cached, &res
			}
			v.Items = append(v.Items, it)
		case kindSweep:
			if je != nil {
				v.PointErrors = append(v.PointErrors, PointError{Nodes: pt.nodes, Error: je})
				break
			}
			v.Points = append(v.Points, ringmesh.SweepPoint{
				Nodes: pt.nodes, Topology: pt.topo, Result: res, Attempts: o.attempts,
			})
		default:
			if je == nil {
				v.Result = &res
			}
		}
	}
	// Every point failed: the job carries the first point's
	// classification, so a sweep that died entirely of connect errors
	// reports as such, not as a generic 500.
	if j.state == JobFailed && firstErr != nil {
		v.Error = firstErr
		if noun, listed := map[string]string{kindSweep: "points", kindBatch: "batch entries"}[j.sub.Kind]; listed {
			v.Error = &JobError{Status: firstErr.Status, Kind: firstErr.Kind,
				Message: fmt.Sprintf("all %d %s failed; first: %s", len(j.outcomes), noun, firstErr.Message)}
		}
	}
	return v
}

// finish records the outcome and closes the completion channel, with
// one rule for every kind: the job failed when err is set (shed,
// expired or canceled: an aborted attempt, not an answer) or no point
// succeeded; otherwise it is done, and degraded when some point failed.
func (j *job) finish(outs []outcome, err error) (failed bool) {
	ok := 0
	for _, o := range outs {
		if o.err == nil {
			ok++
		}
	}
	j.mu.Lock()
	if err != nil {
		j.state, j.err = JobFailed, err
	} else {
		j.outcomes = outs
		j.state = JobDone
		if ok == 0 {
			j.state = JobFailed
		}
		j.degraded = j.degraded || (ok > 0 && ok < len(outs))
	}
	failed = j.state == JobFailed
	j.mu.Unlock()
	close(j.done)
	return failed
}

// finished reports whether the job has completed (either way).
func (j *job) finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}
