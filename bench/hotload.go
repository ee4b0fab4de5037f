package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"ringmesh"
)

// smallSchedule keeps one served simulation near 9 ms, so server
// overhead stays a visible share of a submit op.
var smallSchedule = ringmesh.RunOptions{WarmupCycles: 500, BatchCycles: 500, Batches: 4}

const (
	hotKeys       = 64   // working set: 32 ring 3:8 + 32 mesh 4x4, twice the memory LRU
	hotClients    = 2    // closed-loop clients, one keep-alive connection each
	hotZipfS      = 1.1  // popularity skew over the keys
	hotWarmPerSec = 500  // discarded warm-up ops per client per nominal second,
	hotWarmMax    = 5000 // up to this many
	hotTraceJobs  = 128  // per client, POST jobs whose server spans the traced pass fetches
	hotGetShare   = 10   // one op in this many is a GET /v1/jobs/{id}
	hotLimitMS    = 5.0  // latency limit
)

// smallConfig is key i's configuration: ring 3:8 for even i, mesh 4x4
// for odd i, each with its own seed.
func smallConfig(seed uint64, i int) ringmesh.Config {
	cfg := ringmesh.Config{Network: "ring", Topology: "3:8", LineBytes: 32,
		Workload: ringmesh.PaperWorkload(), Seed: mix(seed, uint64(i))}
	if i%2 == 1 {
		cfg.Network, cfg.Topology, cfg.BufferFlits = "mesh", "4x4", 4
	}
	return cfg
}

// smallPMs is a small configuration's processor count (a sweep point
// names it; ring 3:8 has 24, mesh 4x4 has 16).
func smallPMs(cfg ringmesh.Config) int {
	switch {
	case cfg.Nodes > 0:
		return cfg.Nodes
	case cfg.Network == "mesh":
		return 16
	default:
		return 24
	}
}

func scheduleCycles(o ringmesh.RunOptions) int64 {
	return o.WarmupCycles + o.BatchCycles*int64(o.Batches)
}

// hotLoad is the read side of the daemon: every POST names a key the
// server already holds, in memory or on disk.
type hotLoad struct {
	env    env
	dir    string
	srv    *server
	bodies [][]byte          // POST body per key
	want   []ringmesh.Result // direct ringmesh.Run of each key
	pms    []int             // processors of each key's system
	perm   []int             // popularity rank -> key
	phase  int               // measured phases so far (each gets fresh client streams)
}

func newHotLoad(e env) *hotLoad { return &hotLoad{env: e} }

func (w *hotLoad) setup() error {
	dir, err := freshDir(w.env.tmp, "hot-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.srv, err = bootServer(dir, true); err != nil {
		return err
	}
	w.bodies = make([][]byte, hotKeys)
	w.want = make([]ringmesh.Result, hotKeys)
	w.pms = make([]int, hotKeys)
	c := newClient(w.srv.url)
	defer c.close()
	ids := make([]string, hotKeys)
	for i := range w.bodies {
		cfg := smallConfig(w.env.seed, i)
		w.bodies[i] = runBody(cfg, smallSchedule)
		w.pms[i] = smallPMs(cfg)
		status, data, err := c.do("POST", "/v1/runs", w.bodies[i])
		if err != nil {
			return err
		}
		var doc jobDoc
		if err := json.Unmarshal(data, &doc); err != nil || status != http.StatusAccepted {
			return fmt.Errorf("pre-warm key %d: status %d: %s", i, status, data)
		}
		ids[i] = doc.ID
	}
	// The reference results are computed here, while the server's two
	// workers simulate the same keys.
	for i := range w.want {
		if w.want[i], err = ringmesh.Run(smallConfig(w.env.seed, i), smallSchedule); err != nil {
			return err
		}
	}
	for i, id := range ids {
		doc, err := awaitJob(c, id, time.Minute)
		if err != nil {
			return err
		}
		if doc.State != "done" || doc.Result == nil {
			return fmt.Errorf("pre-warm key %d: job %s ended %s", i, id, doc.State)
		}
	}
	w.perm = popularityOrder(w.env.seed)
	// Discarded warm-up ops: connections, the LRU's steady state and the
	// job table's retention bound are all reached before timing starts.
	warm := min(int(float64(hotWarmPerSec)*w.env.seconds), hotWarmMax)
	_, err = w.run(func(_ time.Time, n int) bool { return n >= warm }, time.Second, nil)
	return err
}

// popularityOrder maps popularity rank to key: a seed-shuffled order
// within each family, ring keys on the even ranks and mesh keys on the
// odd ones, so the ring/mesh mix of the traffic (and with it the
// simulated work an average hit delivers) does not depend on the seed.
func popularityOrder(seed uint64) []int {
	rng := rand.New(rand.NewSource(int64(mix(seed, 1<<32))))
	rings, meshes := rng.Perm(hotKeys/2), rng.Perm(hotKeys/2)
	perm := make([]int, hotKeys)
	for r := range perm {
		if r%2 == 0 {
			perm[r] = 2 * rings[r/2] // even keys are rings (smallConfig)
		} else {
			perm[r] = 2*meshes[r/2] + 1
		}
	}
	return perm
}

// stream returns client c's key stream for a phase.
func (w *hotLoad) stream(phase, c int) (*rand.Rand, *rand.Zipf) {
	rng := rand.New(rand.NewSource(int64(mix(w.env.seed, uint64(1<<33+phase*hotClients+c)))))
	return rng, rand.NewZipf(rng, hotZipfS, 1, hotKeys-1)
}

// hotResult is one client's share of a phase.
type hotResult struct {
	m      measurement
	traced []tracedJob
}

// tracedJob remembers a request whose server-side spans are fetched
// after the phase.
type tracedJob struct {
	id    string
	op    int
	span  int // the http.post span
	start time.Time
	lane  int
}

// hotProgress is what the clients have completed so far, read by the
// goroutine that cuts the phase into blocks.
type hotProgress struct {
	ops      atomic.Int64
	pmcycles atomic.Int64
}

// run drives both clients until stop says so (given the phase start and
// the client's own op count), cutting a block every span, and merges
// their results.
func (w *hotLoad) run(stop func(start time.Time, ops int) bool, span time.Duration, tr *tracer) (*measurement, error) {
	phase := w.phase
	w.phase++
	results := make([]hotResult, hotClients)
	var wg sync.WaitGroup
	var progress hotProgress
	m := &measurement{}
	k := m.startMeter()
	for c := 0; c < hotClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.client(c, phase, k.start, stop, tr, &progress, &results[c])
		}(c)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	tick := time.NewTicker(span)
	defer tick.Stop()
	for running := true; running; {
		select {
		case <-tick.C:
		case <-done:
			running = false
		}
		k.cutAt(int(progress.ops.Load()), float64(progress.pmcycles.Load()))
	}
	k.stop()
	for i := range results {
		r := &results[i]
		m.latencies = append(m.latencies, r.m.latencies...)
		m.series = append(m.series, r.m.latencies)
		m.attempted += r.m.attempted
		m.failed += r.m.failed
		m.overLimit += r.m.overLimit
		m.pmcycles += r.m.pmcycles
		m.notes = append(m.notes, r.m.notes...)
	}
	if tr != nil {
		c := newClient(w.srv.url)
		defer c.close()
		for i := range results {
			for _, j := range results[i].traced {
				spans, err := jobSpans(c, j.id)
				if err != nil {
					continue // the job table dropped it; the sample just shrinks
				}
				for _, s := range spans {
					tr.record("serve."+s.Name, j.span, j.op, j.lane, j.start.Add(s.Offset), s.Dur)
				}
			}
		}
	}
	return m, nil
}

// client is one closed-loop caller: nine ops in ten POST a Zipf-chosen
// key, the tenth GETs the document of the job its last POST created.
func (w *hotLoad) client(c, phase int, start time.Time, stop func(time.Time, int) bool, tr *tracer, progress *hotProgress, out *hotResult) {
	rng, zipf := w.stream(phase, c)
	conn := newClient(w.srv.url)
	defer conn.close()
	cycles := scheduleCycles(smallSchedule)
	lastID := ""
	m := &out.m
	for n := 0; !stop(start, n); n++ {
		opID := n*hotClients + c
		get := lastID != "" && rng.Intn(hotGetShare) == 0
		key := w.perm[zipf.Uint64()]
		op := tr.begin("op", 0, opID, c)
		t := time.Now()
		var (
			status int
			data   []byte
			err    error
			sp     int
		)
		if get {
			sp = tr.begin("http.poll", op, opID, c)
			status, data, err = conn.do("GET", "/v1/jobs/"+lastID, nil)
		} else {
			sp = tr.begin("http.post", op, opID, c)
			status, data, err = conn.do("POST", "/v1/runs", w.bodies[key])
		}
		tr.end(sp)
		var doc jobDoc
		if err == nil {
			err = json.Unmarshal(data, &doc)
		}
		took := ms(time.Since(t))
		tr.end(op)
		m.attempted++
		m.latencies = append(m.latencies, took)
		progress.ops.Add(1)
		switch {
		case err != nil:
			m.fail("client %d op %d: %v", c, n, err)
		case status != http.StatusOK || doc.State != "done" || doc.Result == nil:
			m.fail("client %d op %d: status %d state %q", c, n, status, doc.State)
		case !get && !doc.Cached:
			m.fail("client %d op %d: key %d was simulated, not served from cache", c, n, key)
		case !get && !reflect.DeepEqual(*doc.Result, w.want[key]):
			m.fail("client %d op %d: key %d result differs from a direct ringmesh.Run", c, n, key)
		default:
			if took > hotLimitMS {
				m.overLimit++
			}
			if !get {
				lastID = doc.ID
				m.pmcycles += float64(int64(w.pms[key]) * cycles)
				progress.pmcycles.Add(int64(w.pms[key]) * cycles)
				if tr != nil {
					out.traced = append(out.traced, tracedJob{id: doc.ID, op: opID, span: sp, start: t, lane: c})
					if len(out.traced) > hotTraceJobs {
						out.traced = out.traced[1:]
					}
				}
			}
			continue
		}
		m.overLimit++ // a failed op misses the limit too
	}
}

func (w *hotLoad) measure(d time.Duration, tr *tracer) (*measurement, error) {
	c := newClient(w.srv.url)
	defer c.close()
	before, err := scrape(c)
	if err != nil {
		return nil, err
	}
	m, err := w.run(func(start time.Time, _ int) bool { return time.Since(start) >= d }, blockSpan(d), tr)
	if err != nil {
		return nil, err
	}
	after, err := scrape(c)
	if err != nil {
		return nil, err
	}
	hits := after["ringmeshd_cache_hits_total"] - before["ringmeshd_cache_hits_total"]
	disk := after["ringmeshd_disk_cache_hits_total"] - before["ringmeshd_disk_cache_hits_total"]
	if hits > 0 {
		m.layer = map[string]float64{
			"serve.mem_hit_share":  (hits - disk) / hits,
			"serve.disk_hit_share": disk / hits,
		}
	}
	return m, nil
}

func (w *hotLoad) close() {
	w.srv.stop()
	w.srv = nil
}
