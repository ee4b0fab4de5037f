package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"ringmesh"
	"ringmesh/internal/fidelity"
	"ringmesh/internal/obs"
)

// runRequest is the POST /v1/runs body: a facade Config (snake_case
// wire names, see ringmesh.Config) plus an optional run schedule
// (omitted: DefaultRunOptions) and an optional relative deadline in
// milliseconds (omitted or 0: none; overrides the X-Ringmeshd-Deadline
// header).
type runRequest struct {
	Config  ringmesh.Config      `json:"config"`
	Options *ringmesh.RunOptions `json:"options"`
	// Class is accepted and ignored: older clients send a priority
	// class, the body rejects unknown fields, and every job joins one
	// FIFO.
	Class      string `json:"class,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
	// Fidelity selects the answer tier: "simulate" (default), an
	// inline "analytic" estimate, or the "auto" policy (cache, else
	// analytic with an upgrade job). Wins over
	// config.fidelity when both are set. See fidelity.go.
	Fidelity string `json:"fidelity,omitempty"`
}

// sweepRequest is the POST /v1/sweeps body: a base Config measured at
// each size (topology re-derived per size).
type sweepRequest struct {
	Config     ringmesh.Config      `json:"config"`
	Sizes      []int                `json:"sizes"`
	Options    *ringmesh.RunOptions `json:"options"`
	Class      string               `json:"class,omitempty"` // ignored, see runRequest.Class
	DeadlineMS int64                `json:"deadline_ms,omitempty"`
	// Fidelity selects the answer tier for every point (see
	// runRequest.Fidelity).
	Fidelity string `json:"fidelity,omitempty"`
}

// batchRunRequest is one entry of a batch submission: a config plus an
// optional schedule. The deadline lives on the batch, not its entries —
// the batch is one unit.
type batchRunRequest struct {
	Config  ringmesh.Config      `json:"config"`
	Options *ringmesh.RunOptions `json:"options"`
}

// batchRequest is the POST /v1/batch body: many runs submitted as one
// job under one optional deadline.
type batchRequest struct {
	Runs       []batchRunRequest `json:"runs"`
	Class      string            `json:"class,omitempty"` // ignored, see runRequest.Class
	DeadlineMS int64             `json:"deadline_ms,omitempty"`
	// Fidelity applies to entries whose config does not set its own
	// (an entry's config.fidelity wins). See runRequest.Fidelity.
	Fidelity string `json:"fidelity,omitempty"`
}

// deadlineHeader optionally carries a relative client deadline as a Go
// duration string ("30s", "1m30s"); a deadline_ms body field wins over
// it.
const deadlineHeader = "X-Ringmeshd-Deadline"

// errorBody is the JSON error envelope on non-2xx responses. Shed and
// draining responses additionally carry a retry hint mirroring the
// Retry-After header (in milliseconds, since the header only has
// whole-second resolution).
type errorBody struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// Handler returns the daemon's route table:
//
//	POST /v1/runs              submit one simulation
//	POST /v1/sweeps            submit a size sweep
//	POST /v1/batch             submit many runs as one job
//	                           (each: 202, or 200 when every point was answered
//	                           at submission — cache hits, analytic estimates)
//	GET  /v1/jobs/{id}         poll a job document; ?watch=1 streams SSE
//	GET  /v1/jobs/{id}/trace   job lifecycle spans as Chrome trace-event JSON
//	GET  /healthz              liveness: 200 while the process serves at all
//	GET  /readyz               readiness: 503 while draining, else 200; both
//	                           carry the number of queued jobs
//	GET  /metrics              Prometheus-style text snapshot
//	GET  /debug/pprof/...      Go profiling endpoints (only with EnablePprof)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleRun)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.opt.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// writeJSON encodes before it commits the status, so a document that
// does not encode (a NaN or an infinity in a result) is a 500 naming
// the encode error, never a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	doc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		status = http.StatusInternalServerError
		doc, _ = json.MarshalIndent(errorBody{Error: "encode response: " + err.Error()}, "", "  ")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(doc, '\n'))
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeBackoff answers a shed or draining request with the documented
// backpressure contract: a 503 with a Retry-After header in whole
// seconds (rounded up, so never 0) plus a structured body carrying the
// millisecond-precision retry hint.
func writeBackoff(w http.ResponseWriter, retryAfter time.Duration, err error) {
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	writeJSON(w, http.StatusServiceUnavailable, errorBody{
		Error:        err.Error(),
		RetryAfterMS: retryAfter.Milliseconds(),
	})
}

// clientKey identifies a client in logs: the source address without
// the ephemeral port.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// gate applies the request checks every submission endpoint shares:
// drain state (a draining server accepts no new jobs, cached or not),
// then body decode with unknown fields rejected.
// It reports false after writing the error response.
func (s *Server) gate(w http.ResponseWriter, r *http.Request, into any) bool {
	if s.drainingNow() {
		s.rejected.Inc()
		writeBackoff(w, time.Second, errDraining)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opt.MaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "bad request body: %v", err)
		return false
	}
	return true
}

// optionsOr resolves a request's optional schedule (omitted:
// DefaultRunOptions).
func optionsOr(o *ringmesh.RunOptions) ringmesh.RunOptions {
	if o == nil {
		return ringmesh.DefaultRunOptions()
	}
	return *o
}

// submitDeadline resolves a submission's absolute deadline. The
// deadline is relative at the wire (header: a Go duration; body:
// milliseconds, winning over the header) and absolute from here on, so
// queue time counts against it.
func submitDeadline(r *http.Request, deadlineMS int64) (time.Time, error) {
	if deadlineMS < 0 {
		return time.Time{}, fmt.Errorf("deadline_ms %d < 0", deadlineMS)
	}
	var deadline time.Time
	if h := r.Header.Get(deadlineHeader); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil || d <= 0 {
			return time.Time{}, fmt.Errorf("bad %s header %q: want a positive Go duration like \"30s\"", deadlineHeader, h)
		}
		deadline = time.Now().Add(d)
	}
	if deadlineMS > 0 {
		deadline = time.Now().Add(time.Duration(deadlineMS) * time.Millisecond)
	}
	return deadline, nil
}

// The three submission endpoints are decoders: each reads its own
// request shape, resolves the fidelity policy into the submission, has
// buildJob expand that into a job, and hands the job to submit. A run
// and a sweep differ only in their sizes, so they share submitConfig.

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if s.gate(w, r, &req) {
		s.submitConfig(w, r, kindRun, req.Config, req.Options, nil, req.Fidelity, req.DeadlineMS)
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if s.gate(w, r, &req) {
		s.submitConfig(w, r, kindSweep, req.Config, req.Options, req.Sizes, req.Fidelity, req.DeadlineMS)
	}
}

// submitConfig submits a run (sizes nil) or a sweep of one config.
func (s *Server) submitConfig(w http.ResponseWriter, r *http.Request, kind string, cfg ringmesh.Config,
	options *ringmesh.RunOptions, sizes []int, fid string, deadlineMS int64) {
	mode, err := s.resolveFidelity(fid, &cfg)
	if err != nil {
		s.badRequest(w, r, err)
		return
	}
	opt := optionsOr(options)
	j := s.buildJob(w, r, journalRecord{Kind: kind, Config: &cfg, Options: &opt,
		Sizes: sizes, auto: mode == fidelity.Auto}, deadlineMS)
	if j != nil {
		s.submit(w, r, j)
	}
}

// handleBatch accepts many runs as one unit: one job, one deadline, one
// journal record — the bulk counterpart to /v1/runs.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.gate(w, r, &req) {
		return
	}
	// Per-entry fidelity: the batch-level field applies to entries whose
	// config does not set its own. Auto is resolved here (the policy
	// never reaches a cache key); concrete tiers stay in the config,
	// where cache keys and the executor read them.
	entries := make([]batchEntry, len(req.Runs))
	anyAuto := false
	for i, br := range req.Runs {
		if br.Config.Fidelity == "" {
			br.Config.Fidelity = req.Fidelity
		}
		auto := br.Config.Fidelity == fidelity.Auto
		if auto {
			anyAuto = true
			br.Config.Fidelity = ""
		}
		entries[i] = batchEntry{Config: br.Config, Options: optionsOr(br.Options), auto: auto}
	}
	j := s.buildJob(w, r, journalRecord{Kind: kindBatch, Entries: entries}, req.DeadlineMS)
	if j == nil {
		return
	}
	if anyAuto {
		s.fidRequests[fidelity.Auto].Inc()
	} else if mode, err := fidelity.Normalize(req.Fidelity); err == nil {
		s.fidRequests[mode].Inc()
	}
	s.submit(w, r, j)
}

// badRequest refuses a submission the client got wrong.
func (s *Server) badRequest(w http.ResponseWriter, r *http.Request, err error) {
	s.log.Warn("submission rejected", "client", clientKey(r), "err", err)
	writeError(w, http.StatusBadRequest, "%v", err)
}

// buildJob resolves a decoded submission's deadline and expands it
// into a job of validated points. It reports nil after writing the 400.
func (s *Server) buildJob(w http.ResponseWriter, r *http.Request, sub journalRecord, deadlineMS int64) *job {
	start := time.Now()
	deadline, err := submitDeadline(r, deadlineMS)
	if err != nil {
		s.badRequest(w, r, err)
		return nil
	}
	points, family, err := expand(sub)
	if err != nil {
		s.badRequest(w, r, err)
		return nil
	}
	j := newJob("", sub, points, family)
	j.deadline = deadline
	j.tr.Record(obs.SpanRecord{
		Name: "validate", Start: start, Dur: time.Since(start),
		Attrs: []obs.Attr{{Key: "points", Value: strconv.Itoa(len(points))}},
	})
	return j
}

// submit is the one tail of every submission, ending in the first of:
// an inline answer (every point an exact cache hit or answerable
// analytically: 200, the job never queued), admission into the queue
// (202), or its refusal (503 with Retry-After). A deadline is not
// judged here: the executor enforces it at dequeue and through the
// run's context.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, j *job) {
	start := time.Now()
	// A job answered here never touches the queue (or its deadline), so
	// cached replays cost one map lookup per point even when the queue
	// is saturated.
	outs, err := s.answerInline(j)
	if err != nil {
		s.rejected.Inc()
		s.badRequest(w, r, fmt.Errorf("analytic fidelity: %w", err))
		return
	}
	if outs != nil {
		s.respondInline(w, r, j, outs, start)
		return
	}
	if err := s.admit(j, true); err != nil {
		s.rejected.Inc()
		s.log.Warn(j.sub.Kind+" rejected", "client", clientKey(r), "err", err)
		writeBackoff(w, s.retryAfter(j.family), err)
		return
	}
	j.tr.Record(obs.SpanRecord{Name: "enqueue", Start: j.enqueuedAt, Dur: time.Since(j.enqueuedAt)})
	s.accepted.Inc()
	s.log.Info(j.sub.Kind+" accepted", "job", j.id, "family", j.family, "client", clientKey(r))
	writeJSON(w, http.StatusAccepted, j.view())
}

// handleJobTrace serves a job's lifecycle spans as Chrome trace-event
// JSON, loadable in chrome://tracing or Perfetto.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = j.tr.WriteChrome(w, 1)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if r.URL.Query().Get("watch") != "" {
		s.watchJob(w, r, j)
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// watchJob streams the job document over Server-Sent Events: a
// "progress" event with the current document every interval, then one
// "done" event with the final document when the job completes.
func (s *Server) watchJob(w http.ResponseWriter, r *http.Request, j *job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusOK, j.view())
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(event string) bool {
		doc, err := json.Marshal(j.view())
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, doc); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if j.finished() {
		send("done")
		return
	}
	if !send("progress") {
		return
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-j.done:
			send("done")
			return
		case <-tick.C:
			if !send("progress") {
				return
			}
		}
	}
}

// handleHealth is pure liveness: 200 whenever the process can answer
// HTTP at all. Routing decisions belong to /readyz — a draining daemon
// is still alive (it is finishing jobs), it just should not get new
// ones.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyBody is the /readyz document: the gate state plus the number of
// queued jobs, so a load balancer can both stop routing early and see
// the backlog.
type readyBody struct {
	Status string `json:"status"`
	Queued int    `json:"queued"`
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	body := readyBody{Status: "ready", Queued: len(s.queue)}
	if s.drainingNow() {
		body.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WriteText(w)
}
