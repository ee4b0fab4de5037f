package serve

// This file implements multi-fidelity serving: the daemon can answer
// from three tiers — the result cache, the closed-form analytic
// estimator (microseconds, labeled with its recorded error bound),
// and the exact simulator. Clients pick a tier with the request's
// fidelity field:
//
//	"simulate" (or omitted)  exact simulation
//	"analytic"               inline closed-form estimate, never queued
//	"auto"                   cache hit if available, else an analytic
//	                         answer plus a background "upgrade to
//	                         exact" job whose ID rides in the response
//
// Auto is an admission policy, not an answer tier: it is resolved
// before cache keys exist and never enters one. Analytic results live
// under their own cache keys (fidelity joins the key), so an estimate
// can never be served as an exact result. Under admission pressure,
// background-class runs whose client did not name a tier degrade to
// analytic-with-upgrade instead of 503, observable via the
// ringmeshd_fidelity_* counters. answerInline is the one place all of
// this is decided.

import (
	"net/http"
	"slices"
	"time"

	"ringmesh"
	"ringmesh/internal/fidelity"
	"ringmesh/internal/metrics"
)

// fidelityBuckets spans 1µs to ~16s in x4 steps: inline analytic
// answers land in the microsecond decades and simulations in seconds,
// and one bucket family must hold both for the per-fidelity latency
// histograms to be comparable.
var fidelityBuckets = metrics.ExpBuckets(1e-6, 4, 12)

// resolveFidelity merges a request's top-level fidelity field into its
// config (the top-level field wins) and resolves the serving mode:
// fidelity.Simulate, fidelity.Analytic or fidelity.Auto. Auto is
// cleared from the config here so cache keys are always computed for
// a concrete tier. explicit reports whether the client named a tier
// itself, which gates shed-pressure degradation — a client that
// explicitly asked to "simulate" is never silently answered
// analytically.
func (s *Server) resolveFidelity(reqFid string, cfg *ringmesh.Config) (mode string, explicit bool, err error) {
	if reqFid != "" {
		cfg.Fidelity = reqFid
	}
	raw := cfg.Fidelity
	if raw == fidelity.Auto {
		cfg.Fidelity = ""
		s.fidRequests[fidelity.Auto].Inc()
		return fidelity.Auto, false, nil
	}
	mode, err = fidelity.Normalize(raw)
	if err != nil {
		return "", false, err
	}
	s.fidRequests[mode].Inc()
	return mode, raw != "", nil
}

// answerInline resolves every point of j without the queue: an exact
// cache hit keeps its full fidelity, and a point that asked for the
// analytic tier — or may be answered from it: auto, or any point when
// force is set (the shed-pressure degrade) — is estimated through the
// result cache under its analytic key, so estimates and exact results
// never collide and identical estimates coalesce. It returns nil
// outcomes when some point needs the simulator, including an auto
// point the analytic model refuses (counted as a fallback): refusal
// costs a queue slot, never a wrong labeled answer. Only a refused
// point that asked for the analytic tier by name is an error — the
// client named a tier that cannot answer this configuration.
func (s *Server) answerInline(j *job, force bool) ([]outcome, error) {
	outs := make([]outcome, len(j.points))
	for i := range j.points {
		p := &j.points[i]
		named := p.cfg.Fidelity == fidelity.Analytic
		if !named {
			if res, ok := s.cache.get(p.key); ok {
				outs[i] = outcome{res: res, cached: true, attempts: 1}
				continue
			}
			if !p.auto && !force {
				return nil, nil
			}
		}
		res, cached, err := s.estimate(j, p)
		if err != nil && named {
			return nil, err
		}
		if err != nil {
			if p.auto {
				s.fidFallback.Inc()
			}
			s.log.Info("analytic model refused the point; it needs the queue", "err", err)
			return nil, nil
		}
		outs[i] = outcome{res: res, cached: cached, attempts: 1}
	}
	return outs, nil
}

// estimate answers one point from the analytic tier, through the
// result cache under the point's analytic key. (Its own function so
// the cached-run path through answerInline allocates no closure.)
func (s *Server) estimate(j *job, p *point) (ringmesh.Result, bool, error) {
	cfg := p.cfg
	cfg.Fidelity = fidelity.Analytic
	// The point validated at submission and fidelity does not enter
	// validation: keying its analytic spelling cannot fail.
	key, _ := ringmesh.CacheKey(cfg, p.opt)
	return s.cache.do(s.baseCtx, key, j.tr, func() (ringmesh.Result, error) {
		return ringmesh.Estimate(cfg, p.opt)
	})
}

// upgradeOf builds the background job that lands the exact results of
// the points answered from the analytic tier without having asked for
// it: same kind, those points only. Nil when there are none.
func (s *Server) upgradeOf(j *job, outs []outcome) *job {
	sub := journalRecord{Kind: j.sub.Kind, Config: j.sub.Config, Options: j.sub.Options}
	var points []point
	for i := range outs {
		if outs[i].res.Fidelity == "" || j.points[i].cfg.Fidelity == fidelity.Analytic {
			continue
		}
		p := j.points[i]
		p.auto = false
		points = append(points, p)
		if j.sub.Sizes != nil {
			sub.Sizes = append(sub.Sizes, p.nodes)
		}
		if j.sub.Entries != nil {
			sub.Entries = append(sub.Entries, j.sub.Entries[i])
		}
	}
	if points == nil {
		return nil
	}
	u := newJob("", sub, points, j.family)
	u.class = classBackground
	return u
}

// respondInline finishes a job answerInline resolved and writes the
// 200, with the ID of its upgrade job in the document when one was
// admitted. That admission is best-effort: under the same pressure
// that degraded the original request the upgrade is usually shed too,
// and the caller simply gets no upgrade ID.
func (s *Server) respondInline(w http.ResponseWriter, r *http.Request, j *job, outs []outcome, start time.Time, degraded bool) {
	upgradeID := ""
	if u := s.upgradeOf(j, outs); u != nil {
		if err := s.admit(u); err != nil {
			s.log.Info("upgrade job not admitted", "kind", u.sub.Kind, "err", err)
		} else {
			upgradeID = u.id
			s.accepted.Inc()
			s.fidUpgrades.Inc()
		}
	}
	j.mu.Lock()
	j.degraded, j.upgradeID = degraded, upgradeID
	j.mu.Unlock()
	j.finish(outs, nil)
	s.register(j) // last: an inline answer takes the ID after its upgrade's
	s.accepted.Inc()
	s.completed.Inc()
	if degraded {
		s.fidDegraded.Inc()
	}
	analytic := slices.ContainsFunc(outs, func(o outcome) bool { return o.res.Fidelity != "" })
	if analytic {
		s.fidAnalyticAnswers.Inc()
		s.histogram("ringmeshd_fidelity_answer_seconds",
			metrics.Labels{Fidelity: fidelity.Analytic}, fidelityBuckets).
			Observe(time.Since(start).Seconds())
	}
	// Five attributes: slog keeps that many in the record itself.
	s.log.Info(j.sub.Kind+" answered inline", "job", j.id, "family", j.family,
		"degraded", degraded, "upgrade", upgradeID, "client", clientKey(r))
	writeJSON(w, http.StatusOK, j.view())
}
