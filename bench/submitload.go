package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"time"

	"ringmesh"
)

const (
	submitRate    = 15.0             // Poisson arrivals per second of the serve-submit workload
	submitLimitMS = 250.0            // a batch of four runs alone takes about 90 ms on the reference box
	submitVerify  = 20               // one result in this many is re-derived by a direct ringmesh.Run
	pollPause     = time.Millisecond // poller rest between cycles, so it does not take a core from the workers
	submitGrace   = 20 * time.Second // how long after the last arrival a job may still finish
)

var sweepSizes = []int{8, 12, 16, 24}

// arrival is one request of the open-loop schedule.
type arrival struct {
	due  time.Duration // offset from the phase start
	kind string        // "run", "sweep" or "batch"
	path string
	body []byte
	cfgs []ringmesh.Config // what a direct ringmesh.Run must reproduce, in result order
}

// poissonArrivals places rate x horizon arrivals uniformly at random
// over the horizon and sorts them: a Poisson process conditioned on its
// count, so every seed offers the same number of requests and only
// their spacing (the bursts) differs. The same seed gives the same
// schedule.
func poissonArrivals(rng *rand.Rand, rate float64, horizon time.Duration) []time.Duration {
	out := make([]time.Duration, int(rate*horizon.Seconds()+0.5))
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(horizon))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// submitSchedule builds the arrivals of one phase. Every request
// carries keys no other request of this server has used (first numbers
// the phase's first key), so nothing is ever served from cache. Every
// block of ten requests holds, in seed-shuffled order, eight single
// runs, one sweep over four sizes and one batch of four: the mix is
// exact, so the tail does not depend on how many slow kinds a seed drew.
func submitSchedule(seed uint64, first int, rate float64, horizon time.Duration) []arrival {
	rng := rand.New(rand.NewSource(int64(mix(seed, uint64(1<<34+first)))))
	dues := poissonArrivals(rng, rate, horizon)
	out := make([]arrival, len(dues))
	key := first
	var block []int // kinds of the next requests: each block of ten holds 8 runs, 1 sweep, 1 batch
	for i, due := range dues {
		if len(block) == 0 {
			block = rng.Perm(10)
		}
		a, kind := arrival{due: due}, block[0]
		block = block[1:]
		switch {
		case kind < 8:
			cfg := smallConfig(seed, key)
			key++
			a.kind, a.path, a.cfgs = "run", "/v1/runs", []ringmesh.Config{cfg}
			a.body = runBody(cfg, smallSchedule)
		case kind == 8:
			base := smallConfig(seed, key&^1) // even keys are rings
			base.Seed = mix(seed, uint64(key))
			base.Topology = ""
			key++
			a.kind, a.path = "sweep", "/v1/sweeps"
			a.body = mustJSON(map[string]any{"config": base, "sizes": sweepSizes, "options": smallSchedule})
			for _, n := range sweepSizes {
				cfg := base
				cfg.Nodes = n
				a.cfgs = append(a.cfgs, cfg)
			}
		default:
			a.kind, a.path = "batch", "/v1/batch"
			var runs []map[string]any
			for k := 0; k < 4; k++ {
				cfg := smallConfig(seed, key)
				key++
				a.cfgs = append(a.cfgs, cfg)
				runs = append(runs, map[string]any{"config": cfg, "options": smallSchedule})
			}
			a.body = mustJSON(map[string]any{"runs": runs})
		}
		out[i] = a
	}
	return out
}

// keysUsed is an upper bound on the keys one arrival consumes.
const keysUsed = 4

// submitLoad is the write side of the daemon under an open-loop
// arrival schedule. Latency runs from the instant a request was due to
// the first poll that sees its job in a terminal state, so time the
// generator spent stalled on an earlier request counts against the
// requests it delayed.
type submitLoad struct {
	env     env
	srv     *server
	nextKey int
	// layers makes measure also fetch every job's server-side spans and
	// the daemon's counters after the phase (always on when traced).
	layers bool
	rate   float64 // arrivals per second
}

func newSubmitLoad(e env) *submitLoad { return &submitLoad{env: e, rate: submitRate} }

func (w *submitLoad) setup() error {
	dir, err := freshDir(w.env.tmp, "submit-")
	if err != nil {
		return err
	}
	if w.srv, err = bootServer(dir, true); err != nil {
		return err
	}
	w.nextKey = 0
	// A few untimed submissions, one at a time so their cost does not
	// depend on how they happen to queue: journal file, cache directory
	// and worker goroutines exist before the schedule starts.
	warm := submitSchedule(w.env.seed, w.nextKey, submitRate, time.Second)
	warm = warm[:min(8, len(warm))]
	w.nextKey += keysUsed * len(warm)
	for _, a := range warm {
		a.due = 0
		if _, err := w.drive([]arrival{a}, nil); err != nil {
			return err
		}
	}
	return nil
}

// inflight is a submitted request the poller still watches.
type inflight struct {
	idx  int
	id   string
	due  time.Time
	sent time.Time
	op   int // op span
}

// outcome is what the poller learned about one request.
type outcome struct {
	inflight
	doc  *jobDoc
	done time.Time
	err  error
}

// drive plays one schedule against the server: a submitter goroutine
// on its own connection sends each request when due, a poller on a
// second connection watches every outstanding job.
func (w *submitLoad) drive(sched []arrival, tr *tracer) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	if len(sched) == 0 {
		return m, nil
	}
	cpu0, start := cpuTime(), time.Now()
	// Buffered to the schedule length: the submitter must never wait
	// for the poller, or the loop would stop being open.
	sent := make(chan inflight, len(sched))
	var lagMS []float64
	submitErr := make(chan error, 1)
	go func() {
		defer close(sent)
		c := newClient(w.srv.url)
		defer c.close()
		for i, a := range sched {
			due := start.Add(a.due)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			f := inflight{idx: i, due: due, sent: time.Now()}
			lagMS = append(lagMS, ms(f.sent.Sub(due)))
			f.op = tr.beginAt("op", 0, i, 0, due)
			post := tr.begin("http.post", f.op, i, 0)
			status, data, err := c.do("POST", a.path, a.body)
			tr.end(post)
			var doc jobDoc
			if err == nil {
				err = json.Unmarshal(data, &doc)
			}
			if err == nil && status != http.StatusAccepted {
				err = fmt.Errorf("status %d: %s", status, data)
			}
			if err != nil {
				submitErr <- fmt.Errorf("request %d (%s): %w", i, a.kind, err)
				return
			}
			f.id = doc.ID
			sent <- f
		}
		submitErr <- nil
	}()

	outcomes := make([]outcome, 0, len(sched))
	var cycleMS []float64
	c := newClient(w.srv.url)
	defer c.close()
	var open []inflight
	sending := true
	// take moves one handed-over request into open, waiting for it only
	// when told to; it reports whether it got one.
	take := func(wait bool) bool {
		var f inflight
		if wait {
			f, sending = <-sent
		} else {
			select {
			case f, sending = <-sent:
			default:
				return false
			}
		}
		if sending {
			open = append(open, f)
		}
		return sending
	}
	for sending || len(open) > 0 {
		// Wait for the submitter only when there is nothing to poll.
		for sending && take(len(open) == 0) {
		}
		cycle := time.Now()
		kept := open[:0]
		for _, f := range open {
			sp := tr.begin("http.poll", f.op, f.idx, 1)
			status, data, err := c.do("GET", "/v1/jobs/"+f.id, nil)
			tr.end(sp)
			var doc jobDoc
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("GET job %s: status %d", f.id, status)
			}
			if err == nil {
				err = json.Unmarshal(data, &doc)
			}
			now := time.Now()
			switch {
			case err != nil || doc.terminal():
				tr.end(f.op)
				outcomes = append(outcomes, outcome{inflight: f, doc: &doc, done: now, err: err})
			case now.Sub(f.due) > submitGrace:
				tr.end(f.op)
				outcomes = append(outcomes, outcome{inflight: f, doc: &doc, done: now,
					err: fmt.Errorf("job %s still %s %s after it was due", f.id, doc.State, submitGrace)})
			default:
				kept = append(kept, f)
			}
		}
		open = kept
		if len(open) > 0 {
			cycleMS = append(cycleMS, ms(time.Since(cycle)))
			time.Sleep(pollPause)
		}
	}
	m.elapsed, m.cpu = time.Since(start), cpuTime()-cpu0
	if err := <-submitErr; err != nil {
		// A refused or failed submission ends the schedule early; the
		// requests never sent count as failed.
		m.failN(len(sched)-len(outcomes), "%v", err)
	}

	// Everything below is bookkeeping and checking, outside the timed
	// phase.
	m.attempted = len(sched)
	cycles := float64(scheduleCycles(smallSchedule))
	byKind := map[string][]float64{}
	for _, o := range outcomes {
		a := sched[o.idx]
		lat := ms(o.done.Sub(o.due))
		m.latencies = append(m.latencies, lat)
		byKind[a.kind] = append(byKind[a.kind], lat)
		results, err := o.results(a)
		if err != nil {
			m.fail("request %d (%s): %v", o.idx, a.kind, err)
			m.overLimit++
			continue
		}
		if lat > submitLimitMS {
			m.overLimit++
		}
		for k, cfg := range a.cfgs {
			m.pmcycles += float64(smallPMs(cfg)) * cycles
			if o.idx%submitVerify == 0 {
				want, err := ringmesh.Run(cfg, smallSchedule)
				if err != nil || !reflect.DeepEqual(want, results[k]) {
					m.fail("request %d (%s) result %d differs from a direct ringmesh.Run (%v)", o.idx, a.kind, k, err)
					break
				}
			}
		}
	}
	m.overLimit += len(sched) - len(outcomes)
	// An open loop completes what the schedule offers: the whole phase is
	// one block.
	m.blocks = []block{{wall: m.elapsed, cpu: m.cpu, ops: m.attempted, pmcycles: m.pmcycles}}
	m.layer["loadgen.lag_ms_p95"] = quantile(sorted(lagMS), 0.95)
	m.layer["loadgen.poll_cycle_ms_p95"] = quantile(sorted(cycleMS), 0.95)
	m.layer["serve.run_op_ms_p50"] = median(byKind["run"])
	m.layer["serve.sweep_ms_p50"] = median(byKind["sweep"])
	m.layer["serve.batch_ms_p50"] = median(byKind["batch"])
	if tr != nil || w.layers {
		w.serverSide(c, outcomes, tr, m)
	}
	return m, nil
}

// results extracts a terminal job's results in request order, or says
// what is wrong with the document.
func (o *outcome) results(a arrival) ([]ringmesh.Result, error) {
	if o.err != nil {
		return nil, o.err
	}
	d := o.doc
	if d.State != "done" {
		return nil, fmt.Errorf("job %s ended %s: %s", o.id, d.State, d.Error)
	}
	var out []ringmesh.Result
	switch a.kind {
	case "run":
		if d.Result == nil {
			return nil, fmt.Errorf("job %s has no result", o.id)
		}
		out = append(out, *d.Result)
	case "sweep":
		if len(d.PointErrors) > 0 || len(d.Points) != len(a.cfgs) {
			return nil, fmt.Errorf("job %s: %d points, %d point errors", o.id, len(d.Points), len(d.PointErrors))
		}
		for _, p := range d.Points {
			out = append(out, p.Result)
		}
	case "batch":
		if len(d.Items) != len(a.cfgs) {
			return nil, fmt.Errorf("job %s: %d items, want %d", o.id, len(d.Items), len(a.cfgs))
		}
		for i, it := range d.Items {
			if it.Result == nil {
				return nil, fmt.Errorf("job %s item %d failed: %s", o.id, i, it.Error)
			}
			out = append(out, *it.Result)
		}
	}
	return out, nil
}

// serverSide fetches every job's lifecycle spans and re-parents them
// under the request's op span, and reads the daemon's counters.
func (w *submitLoad) serverSide(c *client, outcomes []outcome, tr *tracer, m *measurement) {
	durs := map[string][]float64{}
	for _, o := range outcomes {
		spans, err := jobSpans(c, o.id)
		if err != nil {
			continue
		}
		for _, s := range spans {
			durs[s.Name] = append(durs[s.Name], ms(s.Dur))
			// The job's first span (validate) starts as the server
			// begins handling the POST; the send instant is the closest
			// the outside can get to that.
			tr.record("serve."+s.Name, o.op, o.idx, 2, o.sent.Add(s.Offset), s.Dur)
		}
	}
	wait := sorted(durs["queue-wait"])
	m.layer["serve.queue_wait_ms_p50"] = quantile(wait, 0.5)
	m.layer["serve.queue_wait_ms_p95"] = quantile(wait, 0.95)
	m.layer["serve.run_ms_p50"] = median(durs["run"])
	m.layer["serve.store_ms_p50"] = median(durs["cache-store"])
	if ctr, err := scrape(c); err == nil {
		if jobs := ctr["ringmeshd_jobs_accepted_total"]; jobs > 0 {
			m.layer["serve.shed_share"] = ctr["ringmeshd_shed_total"] / (jobs + ctr["ringmeshd_jobs_rejected_total"])
			m.layer["serve.journal_appends_per_job"] = ctr["ringmeshd_journal_appends_total"] / jobs
			m.layer["serve.disk_writes_per_job"] = ctr["ringmeshd_disk_cache_writes_total"] / jobs
		}
	}
}

func (w *submitLoad) measure(d time.Duration, tr *tracer) (*measurement, error) {
	sched := submitSchedule(w.env.seed, w.nextKey, w.rate, d)
	w.nextKey += keysUsed * len(sched)
	return w.drive(sched, tr)
}

func (w *submitLoad) close() {
	w.srv.stop()
	w.srv = nil
}
