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
//	                         answer plus an "upgrade to exact" job
//	                         whose ID rides in the response
//
// Auto is an admission policy, not an answer tier: it is resolved
// before cache keys exist and never enters one. An estimate never
// enters the result cache either: it costs ~0.1 ms, and its key
// carries no model version, so a stored estimate could outlive a
// change to the model. The cache holds only results that cost a
// simulation to recompute, and an estimate is never reported cached.
// answerInline is the one place all of this is decided.

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
// a concrete tier.
func (s *Server) resolveFidelity(reqFid string, cfg *ringmesh.Config) (mode string, err error) {
	if reqFid != "" {
		cfg.Fidelity = reqFid
	}
	if cfg.Fidelity == fidelity.Auto {
		cfg.Fidelity = ""
		s.fidRequests[fidelity.Auto].Inc()
		return fidelity.Auto, nil
	}
	mode, err = fidelity.Normalize(cfg.Fidelity)
	if err != nil {
		return "", err
	}
	s.fidRequests[mode].Inc()
	return mode, nil
}

// answerInline resolves every point of j without the queue: an exact
// cache hit keeps its full fidelity, and a point that asked for the
// analytic tier, or for auto, is estimated afresh. It returns nil
// outcomes when some point needs the simulator, including an auto
// point the analytic model refuses (counted as a fallback): refusal
// costs a queue slot, never a wrong labeled answer. Only a refused
// point that asked for the analytic tier by name is an error — the
// client named a tier that cannot answer this configuration.
func (s *Server) answerInline(j *job) ([]outcome, error) {
	outs := make([]outcome, len(j.points))
	for i := range j.points {
		p := &j.points[i]
		named := p.cfg.Fidelity == fidelity.Analytic
		if !named {
			if res, ok := s.cache.get(p.key); ok {
				outs[i] = outcome{res: res, cached: true}
				continue
			}
			if !p.auto {
				return nil, nil
			}
		}
		res, err := estimate(p)
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
		outs[i] = outcome{res: res}
	}
	return outs, nil
}

// estimate answers one point from the analytic tier, at submission
// (answerInline) or in a queued job (resolve), with a plain call: no
// cache, no single-flight. A refusal (an unsupported feature) is a
// configuration error: the tier cannot answer this config.
func estimate(p *point) (ringmesh.Result, error) {
	cfg := p.cfg
	cfg.Fidelity = fidelity.Analytic
	res, err := ringmesh.Estimate(cfg, p.opt)
	if err != nil {
		return ringmesh.Result{}, &configError{err}
	}
	return res, nil
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
	return newJob("", sub, points, j.family)
}

// respondInline finishes a job answerInline resolved and writes the
// 200, with the ID of its upgrade job in the document when one was
// admitted. The upgrade joins the same queue as every other job and is
// best-effort: when the queue is full it is shed, and the caller simply
// gets no upgrade ID; it is never journaled, so a crash loses it the
// same way, and its ID then reads 404.
func (s *Server) respondInline(w http.ResponseWriter, r *http.Request, j *job, outs []outcome, start time.Time) {
	upgradeID := ""
	if u := s.upgradeOf(j, outs); u != nil {
		if err := s.admit(u, false); err != nil {
			s.log.Info("upgrade job not admitted", "kind", u.sub.Kind, "err", err)
		} else {
			upgradeID = u.id
			s.accepted.Inc()
			s.fidUpgrades.Inc()
		}
	}
	j.mu.Lock()
	j.upgradeID = upgradeID
	j.mu.Unlock()
	j.finish(outs, nil)
	s.register(j)
	s.accepted.Inc()
	s.completed.Inc()
	analytic := slices.ContainsFunc(outs, func(o outcome) bool { return o.res.Fidelity != "" })
	if analytic {
		s.fidAnalyticAnswers.Inc()
		s.reg.Histogram("ringmeshd_fidelity_answer_seconds",
			metrics.Labels{Fidelity: fidelity.Analytic}, fidelityBuckets).
			Observe(time.Since(start).Seconds())
	}
	s.log.Info(j.sub.Kind+" answered inline", "job", j.id, "family", j.family,
		"upgrade", upgradeID, "client", clientKey(r))
	writeJSON(w, http.StatusOK, j.view())
}
