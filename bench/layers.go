package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"ringmesh"
	"ringmesh/internal/exp"
	"ringmesh/internal/fidelity"
	"ringmesh/internal/network"
	"ringmesh/internal/rng"
	"ringmesh/internal/sim"
	"ringmesh/internal/stats"
	"ringmesh/internal/topo"
	"ringmesh/internal/workload"
)

// layerMetric declares one per-layer number: <module>.<metric>.
type layerMetric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// heavy probes (rate ladders, figure sweeps) take tens of seconds:
	// -layers runs them, the acceptance driver's traced run does not,
	// so BENCHMARK.json leaves them out.
	heavy bool
	// traced metrics come from a workload's traced pass, not a probe.
	traced bool
}

// tracedSpans are the span names the traced pass reports a mean self
// time for, as trace.self_ms.<span>: the harness's own op span, its
// calls into the facade, the experiment harness and HTTP, and the
// server's job-lifecycle spans re-parented under the request.
var tracedSpans = []string{
	"op", "facade.NewSystem", "facade.Run", "facade.Estimate", "exp.Run",
	"http.post", "http.poll",
	"serve.validate", "serve.enqueue", "serve.queue-wait", "serve.run", "serve.cache-store",
}

func init() {
	for _, s := range tracedSpans {
		layerMetrics = append(layerMetrics, layerMetric{name: "trace.self_ms." + s, unit: "ms", better: "lower", traced: true})
	}
}

// layerMetrics is every per-layer metric the probes and the traced
// pass report, in print order.
var layerMetrics = []layerMetric{
	{name: "sim.step_ns_uniform64", unit: "ns", better: "lower"},
	{name: "sim.step_ns_mixed64", unit: "ns", better: "lower"},
	{name: "sim.par2_speedup_mesh8x8", unit: "ratio", better: "higher"},
	{name: "sim.par2_barrier_share_mesh8x8", unit: "ratio", better: "lower"},
	{name: "ring.ns_per_pmcycle_hi", unit: "ns", better: "lower"},
	{name: "ring.ns_per_pmcycle_lo", unit: "ns", better: "lower"},
	{name: "ring.ns_per_pmcycle_slotted", unit: "ns", better: "lower"},
	{name: "ring.ns_per_pmcycle_dsg", unit: "ns", better: "lower"},
	{name: "ring.allocs_per_cycle_hi", unit: "count", better: "lower"},
	{name: "mesh.ns_per_pmcycle_hi", unit: "ns", better: "lower"},
	{name: "mesh.ns_per_pmcycle_lo", unit: "ns", better: "lower"},
	{name: "mesh.ns_per_pmcycle_1flit", unit: "ns", better: "lower"},
	{name: "mesh.allocs_per_cycle_hi", unit: "count", better: "lower"},
	{name: "topo.mesh_route_ns", unit: "ns", better: "lower"},
	{name: "topo.ring_for_nodes_us", unit: "us", better: "lower"},
	{name: "workload.target_ns_ring", unit: "ns", better: "lower"},
	{name: "workload.target_ns_mesh", unit: "ns", better: "lower"},
	{name: "stats.batchmeans_add_ns", unit: "ns", better: "lower"},
	{name: "stats.digest_add_ns", unit: "ns", better: "lower"},
	{name: "metrics.on_overhead_share_ring72", unit: "ratio", better: "lower"},
	{name: "trace.on_overhead_share_ring72", unit: "ratio", better: "lower"},
	{name: "core.build_ms_ring72", unit: "ms", better: "lower"},
	{name: "core.build_ms_mesh121", unit: "ms", better: "lower"},
	{name: "core.run_over_step_ratio_ring72", unit: "ratio", better: "lower"},
	{name: "facade.cachekey_us", unit: "us", better: "lower"},
	{name: "facade.result_encode_us", unit: "us", better: "lower"},
	{name: "facade.result_decode_us", unit: "us", better: "lower"},
	{name: "fidelity.estimate_us_ring72", unit: "us", better: "lower"},
	{name: "fidelity.estimate_us_mesh121", unit: "us", better: "lower"},
	{name: "fidelity.estimate_allocs_ring72", unit: "count", better: "lower"},
	{name: "fidelity.boundfor_us", unit: "us", better: "lower"},
	{name: "exp.fig16_points_per_s_w1", unit: "1/s", better: "higher", heavy: true},
	{name: "exp.fig16_points_per_s_w2", unit: "1/s", better: "higher", heavy: true},
	{name: "pool.fanout_speedup_w2", unit: "ratio", better: "higher", heavy: true},
	{name: "serve.hit_mem_us_p50", unit: "us", better: "lower"},
	{name: "serve.hit_disk_us_p50", unit: "us", better: "lower"},
	{name: "serve.jobdoc_get_us_p50", unit: "us", better: "lower"},
	{name: "serve.analytic_us_p50", unit: "us", better: "lower"},
	{name: "serve.auto_us_p50", unit: "us", better: "lower"},
	{name: "serve.ack_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.ack_ms_p50_nojournal", unit: "ms", better: "lower"},
	{name: "serve.sweep_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.batch_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.overhead_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.boot_ms", unit: "ms", better: "lower"},
	{name: "serve.restart_first_hit_ms", unit: "ms", better: "lower"},
	{name: "serve.metrics_scrape_us", unit: "us", better: "lower"},
	{name: "serve.stampede64_ms", unit: "ms", better: "lower"},
	{name: "serve.max_ok_rps", unit: "1/s", better: "higher", heavy: true},
	{name: "serve.queue_wait_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.queue_wait_ms_p95", unit: "ms", better: "lower"},
	{name: "serve.run_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.store_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.mem_hit_share", unit: "ratio", better: "higher"},
	{name: "serve.disk_hit_share", unit: "ratio", better: "lower"},
	{name: "serve.shed_share", unit: "ratio", better: "lower"},
	{name: "serve.journal_appends_per_job", unit: "count", better: "lower"},
	{name: "serve.disk_writes_per_job", unit: "count", better: "lower"},
	{name: "serve.stampede64_simulations", unit: "count", better: "lower"},
	{name: "loadgen.lag_ms_p95", unit: "ms", better: "lower"},
	{name: "loadgen.poll_cycle_ms_p95", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_share", unit: "ratio", better: "lower", traced: true},
	{name: "bench.over_limit_share", unit: "ratio", better: "lower", traced: true},
}

// probeCtx sizes a probe run. Every probe reports the median of reps
// timed repeats after an untimed warm-up; scale shrinks the iteration
// counts for the smoke test.
type probeCtx struct {
	seed  uint64
	tmp   string
	reps  int
	scale float64
	heavy bool
	out   map[string]float64
}

func (c *probeCtx) n(full int) int { return max(1, int(float64(full)*c.scale)) }

// medianOf runs fn once untimed, then reps times, and returns the
// median of what it reports.
func (c *probeCtx) medianOf(fn func() (float64, error)) (float64, error) {
	if _, err := fn(); err != nil {
		return 0, err
	}
	vals := make([]float64, 0, c.reps)
	for i := 0; i < c.reps; i++ {
		v, err := fn()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// perCall times n calls of fn and returns nanoseconds per call.
func perCall(n int, fn func(i int)) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t)) / float64(n)
}

// runProbes runs every probe (heavy ones only when asked) and returns
// the numbers by metric name.
func runProbes(c *probeCtx) (map[string]float64, error) {
	c.out = map[string]float64{}
	probes := []func(*probeCtx) error{
		probeEngine, probeParallel, probeRing, probeMesh, probeSmallLayers,
		probeObservability, probeFacade, probeFidelity, probeServeHot,
		probeServeSubmit, probeServeAck,
	}
	if c.heavy {
		probes = append(probes, probeExp, probeRateLadder)
	}
	for _, p := range probes {
		if err := p(c); err != nil {
			return nil, err
		}
	}
	return c.out, nil
}

// --- sim -----------------------------------------------------------------

// noopComp does one counter bump per phase, so Step's cost is the
// engine's dispatch alone.
type noopComp struct{ n int }

func (c *noopComp) Compute(int64) { c.n++ }
func (c *noopComp) Commit(int64)  { c.n++ }

func probeEngine(c *probeCtx) error {
	for _, p := range []struct {
		name   string
		period int64 // of every second component
	}{{"sim.step_ns_uniform64", 1}, {"sim.step_ns_mixed64", 2}} {
		name, period := p.name, p.period
		var e sim.Engine
		for i := 0; i < 64; i++ {
			if i%2 == 1 {
				e.Register(&noopComp{}, period)
			} else {
				e.Register(&noopComp{}, 1)
			}
		}
		v, err := c.medianOf(func() (float64, error) {
			return perCall(c.n(20000), func(int) { e.Step() }), nil
		})
		if err != nil {
			return err
		}
		c.out[name] = v
	}
	return nil
}

// namedConfig pairs a metric name with the configuration it measures;
// probes walk slices of these so they run in a fixed order.
type namedConfig struct {
	name string
	cfg  ringmesh.Config
}

// stepper is a built system advanced by StepCycles in timed slices.
type stepper struct {
	sys *ringmesh.System
}

func newStepper(cfg ringmesh.Config, warm int64) (*stepper, error) {
	sys, err := ringmesh.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.StepCycles(warm); err != nil {
		return nil, err
	}
	return &stepper{sys: sys}, nil
}

// slice advances n cycles and returns host ns per PM-cycle and heap
// allocations per cycle.
func (s *stepper) slice(n int) (nsPerPMCycle, allocsPerCycle float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	err = s.sys.StepCycles(int64(n))
	took := time.Since(t)
	runtime.ReadMemStats(&after)
	return float64(took) / float64(n) / float64(s.sys.PMs()),
		float64(after.Mallocs-before.Mallocs) / float64(n), err
}

// stepRate warms a system 1000 cycles and returns the median ns per
// PM-cycle and allocations per cycle over the timed slices.
func (c *probeCtx) stepRate(cfg ringmesh.Config, cycles int) (ns, allocs float64, err error) {
	s, err := newStepper(cfg, 1000)
	if err != nil {
		return 0, 0, err
	}
	defer s.sys.Close()
	var allocVals []float64
	ns, err = c.medianOf(func() (float64, error) {
		v, a, err := s.slice(c.n(cycles))
		allocVals = append(allocVals, a)
		return v, err
	})
	return ns, median(allocVals), err
}

func probeParallel(c *probeCtx) error {
	cfg := ringmesh.Config{Network: "mesh", Topology: "8x8", LineBytes: 32, BufferFlits: 4,
		Workload: hiLoad, Seed: 1}
	serial, _, err := c.stepRate(cfg, 1500)
	if err != nil {
		return err
	}
	cfg.Workers = 2
	par, _, err := c.stepRate(cfg, 1500)
	if err != nil {
		return err
	}
	c.out["sim.par2_speedup_mesh8x8"] = serial / par
	// A third system carries the phase timers, so their cost stays out
	// of the speed-up.
	cfg.PhaseStats = true
	s, err := newStepper(cfg, int64(c.n(3000)))
	if err != nil {
		return err
	}
	s.sys.Close()
	ps := s.sys.PhaseStats()
	if ps == nil {
		return fmt.Errorf("mesh 8x8 at Workers=2 did not engage the parallel engine")
	}
	var barrier float64
	for w := range ps.Barrier {
		barrier += ps.Barrier[w].Sum()
	}
	busy := float64(ps.TotalComputeNS() + ps.TotalCommitNS())
	c.out["sim.par2_barrier_share_mesh8x8"] = barrier / (barrier + busy)
	return nil
}

// --- ring, mesh ----------------------------------------------------------

var ring72 = ringmesh.Config{Network: "ring", Topology: "3:3:8", LineBytes: 32, Workload: hiLoad, Seed: 1}

func probeRing(c *probeCtx) error {
	lo, slotted, dsg := ring72, ring72, ring72
	lo.Workload = loLoad
	slotted.SlottedSwitching = true
	dsg.DoubleSpeedGlobal = true
	for _, p := range []namedConfig{
		{"ring.ns_per_pmcycle_hi", ring72}, {"ring.ns_per_pmcycle_lo", lo},
		{"ring.ns_per_pmcycle_slotted", slotted}, {"ring.ns_per_pmcycle_dsg", dsg},
	} {
		name := p.name
		ns, allocs, err := c.stepRate(p.cfg, 1000)
		if err != nil {
			return err
		}
		c.out[name] = ns
		if name == "ring.ns_per_pmcycle_hi" {
			c.out["ring.allocs_per_cycle_hi"] = allocs
		}
	}
	return nil
}

var mesh121 = ringmesh.Config{Network: "mesh", Topology: "11x11", LineBytes: 32, BufferFlits: 4, Workload: hiLoad, Seed: 1}

func probeMesh(c *probeCtx) error {
	lo, oneFlit := mesh121, mesh121
	lo.Workload = loLoad
	oneFlit.LineBytes, oneFlit.BufferFlits = 128, 1
	for _, p := range []namedConfig{
		{"mesh.ns_per_pmcycle_hi", mesh121}, {"mesh.ns_per_pmcycle_lo", lo}, {"mesh.ns_per_pmcycle_1flit", oneFlit},
	} {
		name := p.name
		ns, allocs, err := c.stepRate(p.cfg, 500)
		if err != nil {
			return err
		}
		c.out[name] = ns
		if name == "mesh.ns_per_pmcycle_hi" {
			c.out["mesh.allocs_per_cycle_hi"] = allocs
		}
	}
	return nil
}

// --- topo, workload, stats ---------------------------------------------

var sink int // keeps the compiler from deleting probe loops

func probeSmallLayers(c *probeCtx) error {
	m := topo.MustMeshSpec(11)
	ringPat, err := workload.NewRingLocality(72, 0.5)
	if err != nil {
		return err
	}
	meshPat, err := workload.NewMeshLocality(m, 0.5)
	if err != nil {
		return err
	}
	src := rng.New(c.seed)
	bm := stats.NewBatchMeans(1)
	var dg stats.Digest
	ringSizes := []int{16, 24, 48, 72, 96}
	var ringErr error
	return c.timeCalls([]timedCall{
		{"topo.mesh_route_ns", 200000, 1, func(i int) { sink += int(m.Route(i%121, (i*7)%121)) }},
		{"topo.ring_for_nodes_us", 200, 1e-3, func(i int) {
			if _, err := ringmesh.OptimalRingTopology(ringSizes[i%len(ringSizes)], 32); err != nil {
				ringErr = err
			}
		}},
		{"workload.target_ns_ring", 200000, 1, func(i int) { sink += ringPat.Target(i%72, src) }},
		{"workload.target_ns_mesh", 200000, 1, func(i int) { sink += meshPat.Target(i%121, src) }},
		{"stats.batchmeans_add_ns", 200000, 1, func(i int) {
			bm.Add(float64(i & 1023))
			if i&1023 == 1023 {
				bm.CloseBatch()
			}
		}},
		{"stats.digest_add_ns", 200000, 1, func(i int) { dg.Add(float64(i&4095) + 1) }},
	}, &ringErr)
}

// timedCall is one micro-probe: n calls of fn per timed repeat,
// reported per call in ns times scale.
type timedCall struct {
	name  string
	n     int
	scale float64
	fn    func(i int)
}

// timeCalls runs the micro-probes in order and then reports the error
// their bodies left in *failed, if any.
func (c *probeCtx) timeCalls(calls []timedCall, failed *error) error {
	for _, p := range calls {
		v, err := c.medianOf(func() (float64, error) { return perCall(c.n(p.n), p.fn) * p.scale, nil })
		if err != nil {
			return err
		}
		c.out[p.name] = v
	}
	return *failed
}

// --- metrics, trace, core, facade ----------------------------------------

func probeObservability(c *probeCtx) error {
	off, _, err := c.stepRate(ring72, 600)
	if err != nil {
		return err
	}
	withMetrics, withTrace := ring72, ring72
	withMetrics.Metrics, withMetrics.MetricsIntervalCycles = true, 100
	withTrace.Trace = true
	for _, p := range []namedConfig{
		{"metrics.on_overhead_share_ring72", withMetrics}, {"trace.on_overhead_share_ring72", withTrace},
	} {
		on, _, err := c.stepRate(p.cfg, 600)
		if err != nil {
			return err
		}
		// Cost per PM-cycle enabled over disabled, minus one.
		c.out[p.name] = on/off - 1
	}
	return nil
}

func probeFacade(c *probeCtx) error {
	for _, p := range []namedConfig{{"core.build_ms_ring72", ring72}, {"core.build_ms_mesh121", mesh121}} {
		name := p.name
		v, err := c.medianOf(func() (float64, error) {
			t := time.Now()
			sys, err := ringmesh.NewSystem(p.cfg)
			if err != nil {
				return 0, err
			}
			took := ms(time.Since(t))
			sink += sys.PMs()
			return took, nil
		})
		if err != nil {
			return err
		}
		c.out[name] = v
	}
	// Run's batch-means schedule against bare stepping of as many cycles.
	opt := ringmesh.RunOptions{WarmupCycles: 500, BatchCycles: int64(c.n(500)), Batches: 4}
	var res ringmesh.Result
	run, err := c.medianOf(func() (float64, error) {
		t := time.Now()
		r, err := ringmesh.Run(ring72, opt)
		res = r
		return ms(time.Since(t)), err
	})
	if err != nil {
		return err
	}
	step, err := c.medianOf(func() (float64, error) {
		t := time.Now()
		sys, err := ringmesh.NewSystem(ring72)
		if err != nil {
			return 0, err
		}
		err = sys.StepCycles(scheduleCycles(opt))
		return ms(time.Since(t)), err
	})
	if err != nil {
		return err
	}
	c.out["core.run_over_step_ratio_ring72"] = run / step

	var doc []byte
	var codecErr error
	return c.timeCalls([]timedCall{
		{"facade.cachekey_us", 300, 1e-3, func(int) {
			if _, err := ringmesh.CacheKey(ring72, ringmesh.DefaultRunOptions()); err != nil {
				codecErr = err
			}
		}},
		{"facade.result_encode_us", 300, 1e-3, func(int) { doc, codecErr = json.Marshal(res) }},
		{"facade.result_decode_us", 300, 1e-3, func(int) {
			var back ringmesh.Result
			if err := json.Unmarshal(doc, &back); err != nil {
				codecErr = err
			}
		}},
	}, &codecErr)
}

// --- fidelity ------------------------------------------------------------

func probeFidelity(c *probeCtx) error {
	opt := ringmesh.DefaultRunOptions()
	for _, p := range []namedConfig{{"fidelity.estimate_us_ring72", ring72}, {"fidelity.estimate_us_mesh121", mesh121}} {
		name, cfg := p.name, p.cfg
		cfg.Fidelity = "analytic"
		var estErr error
		var allocs []float64
		v, err := c.medianOf(func() (float64, error) {
			var before, after runtime.MemStats
			n := c.n(20)
			runtime.ReadMemStats(&before)
			ns := perCall(n, func(int) {
				if _, err := ringmesh.Estimate(cfg, opt); err != nil {
					estErr = err
				}
			})
			runtime.ReadMemStats(&after)
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(n))
			return ns / 1e3, estErr
		})
		if err != nil {
			return err
		}
		c.out[name] = v
		if name == "fidelity.estimate_us_ring72" {
			c.out["fidelity.estimate_allocs_ring72"] = median(allocs)
		}
	}
	netCfg := network.Config{Topology: "3:3:8", LineBytes: 32}
	missing := false
	v, err := c.medianOf(func() (float64, error) {
		return perCall(c.n(20), func(int) {
			if _, ok := fidelity.BoundFor("ring", netCfg); !ok {
				missing = true
			}
		}) / 1e3, nil
	})
	if err != nil {
		return err
	}
	if missing {
		return fmt.Errorf("fidelity.BoundFor found no bound for ring 3:3:8")
	}
	c.out["fidelity.boundfor_us"] = v
	return nil
}

// --- exp, pool (heavy) ---------------------------------------------------

func probeExp(c *probeCtx) error {
	e, ok := exp.ByID("fig16")
	if !ok {
		return fmt.Errorf("experiment fig16 not registered")
	}
	rate := func(workers int) (float64, error) {
		spec := exp.QuickSpec()
		spec.Workers, spec.EngineWorkers = workers, 1
		return c.medianOf(func() (float64, error) {
			t := time.Now()
			_, points, _, err := runFigure(e, spec)
			return float64(points) / time.Since(t).Seconds(), err
		})
	}
	w1, err := rate(1)
	if err != nil {
		return err
	}
	w2, err := rate(2)
	if err != nil {
		return err
	}
	c.out["exp.fig16_points_per_s_w1"] = w1
	c.out["exp.fig16_points_per_s_w2"] = w2
	c.out["pool.fanout_speedup_w2"] = w2 / w1
	return nil
}

// --- serve ---------------------------------------------------------------

// timedRequests issues n requests from one connection and returns each
// call's latency in the given unit (1e3 for µs, 1e6 for ms), failing on
// any status other than want.
func timedRequests(conn *client, n int, perUnit float64, want int, req func(i int) (method, path string, body []byte)) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		method, path, body := req(i)
		t := time.Now()
		status, data, err := conn.do(method, path, body)
		out = append(out, float64(time.Since(t))/perUnit)
		if err != nil {
			return nil, err
		}
		if status != want {
			return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, status, want, data)
		}
	}
	return out, nil
}

// probeServeHot runs a short serve-hot phase for the hit shares, then
// times single calls against the same warmed server, restarts it, and
// stampedes it.
func probeServeHot(c *probeCtx) error {
	h := newHotLoad(env{seed: c.seed, seconds: 0.4 * c.scale, tmp: c.tmp})
	defer func() { h.close() }()
	if err := h.setup(); err != nil {
		return err
	}
	m, err := h.measure(time.Duration(0.5*c.scale*float64(time.Second)), nil)
	if err != nil {
		return err
	}
	if m.failed > 0 {
		return fmt.Errorf("serve-hot probe: %d of %d ops failed: %v", m.failed, m.attempted, m.notes)
	}
	for k, v := range m.layer {
		c.out[k] = v
	}
	conn := newClient(h.srv.url)
	defer conn.close()
	post := func(body []byte) func(int) (string, string, []byte) {
		return func(int) (string, string, []byte) { return "POST", "/v1/runs", body }
	}
	hot := h.bodies[h.perm[0]]
	if _, err := timedRequests(conn, 1, 1e3, http.StatusOK, post(hot)); err != nil { // into the LRU
		return err
	}
	mem, err := timedRequests(conn, c.n(200), 1e3, http.StatusOK, post(hot))
	if err != nil {
		return err
	}
	c.out["serve.hit_mem_us_p50"] = median(mem)
	// A sequential scan over twice the LRU's capacity misses memory on
	// every access, so every one of these hits is read from disk.
	disk, err := timedRequests(conn, c.n(2*hotKeys), 1e3, http.StatusOK, func(i int) (string, string, []byte) {
		return "POST", "/v1/runs", h.bodies[i%hotKeys]
	})
	if err != nil {
		return err
	}
	c.out["serve.hit_disk_us_p50"] = median(disk)

	status, data, err := conn.do("POST", "/v1/runs", hot)
	var last jobDoc
	if err == nil {
		err = json.Unmarshal(data, &last)
	}
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("serve probe: POST hot key: status %d: %v", status, err)
	}
	get, err := timedRequests(conn, c.n(200), 1e3, http.StatusOK, func(int) (string, string, []byte) {
		return "GET", "/v1/jobs/" + last.ID, nil
	})
	if err != nil {
		return err
	}
	c.out["serve.jobdoc_get_us_p50"] = median(get)
	scrapes, err := timedRequests(conn, c.n(50), 1e3, http.StatusOK, func(int) (string, string, []byte) {
		return "GET", "/metrics", nil
	})
	if err != nil {
		return err
	}
	c.out["serve.metrics_scrape_us"] = median(scrapes)

	// Inline analytic answers and auto answers, each for a key the
	// server has never seen (a repeat would be a cache hit).
	fresh := func(fid string, base int) func(int) (string, string, []byte) {
		return func(i int) (string, string, []byte) {
			cfg := smallConfig(c.seed, base+i)
			return "POST", "/v1/runs", mustJSON(map[string]any{"config": cfg, "options": smallSchedule, "fidelity": fid})
		}
	}
	analytic, err := timedRequests(conn, c.n(50), 1e3, http.StatusOK, fresh("analytic", 1000))
	if err != nil {
		return err
	}
	c.out["serve.analytic_us_p50"] = median(analytic)
	auto, err := timedRequests(conn, c.n(30), 1e3, http.StatusOK, fresh("auto", 2000))
	if err != nil {
		return err
	}
	c.out["serve.auto_us_p50"] = median(auto)

	// 64 concurrent submissions of one unseen key must simulate once.
	// The auto answers above left upgrade jobs behind; their simulations
	// must not be counted as the stampede's.
	before, err := waitIdle(conn, time.Minute)
	if err != nil {
		return err
	}
	body := runBody(smallConfig(c.seed, 3000), smallSchedule)
	var wg sync.WaitGroup
	errs := make([]error, 64)
	t := time.Now()
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := newClient(h.srv.url)
			defer cl.close()
			status, data, err := cl.do("POST", "/v1/runs", body)
			var doc jobDoc
			if err == nil {
				err = json.Unmarshal(data, &doc)
			}
			if err == nil && status != http.StatusAccepted && status != http.StatusOK {
				err = fmt.Errorf("stampede: status %d", status)
			}
			if err == nil && !doc.terminal() {
				_, err = awaitJob(cl, doc.ID, time.Minute)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	c.out["serve.stampede64_ms"] = ms(time.Since(t))
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	after, err := scrape(conn)
	if err != nil {
		return err
	}
	c.out["serve.stampede64_simulations"] = after["ringmeshd_cache_misses_total"] - before["ringmeshd_cache_misses_total"]

	// Restart over the same directories: boot plus the first hit, which
	// must come from the disk tier.
	restart, err := c.medianOf(func() (float64, error) {
		h.srv.stop()
		t := time.Now()
		srv, err := bootServer(h.dir, true)
		if err != nil {
			return 0, err
		}
		h.srv = srv
		cl := newClient(srv.url)
		defer cl.close()
		status, data, err := cl.do("POST", "/v1/runs", hot)
		took := ms(time.Since(t))
		var doc jobDoc
		if err == nil {
			err = json.Unmarshal(data, &doc)
		}
		if err == nil && (status != http.StatusOK || !doc.Cached) {
			err = fmt.Errorf("first request after restart: status %d cached %v", status, doc.Cached)
		}
		return took, err
	})
	if err != nil {
		return err
	}
	c.out["serve.restart_first_hit_ms"] = restart
	boot, err := c.medianOf(func() (float64, error) {
		dir, err := freshDir(c.tmp, "boot-")
		if err != nil {
			return 0, err
		}
		t := time.Now()
		srv, err := bootServer(dir, true)
		took := ms(time.Since(t))
		srv.stop()
		return took, err
	})
	c.out["serve.boot_ms"] = boot
	return err
}

// waitIdle polls /metrics until the daemon shows nothing queued and no
// simulation in flight on two scrapes in a row (a job just taken off
// the queue is in neither for an instant), and returns the last scrape.
func waitIdle(conn *client, timeout time.Duration) (map[string]float64, error) {
	idle := 0
	for deadline := time.Now().Add(timeout); ; time.Sleep(2 * time.Millisecond) {
		ctr, err := scrape(conn)
		if err != nil {
			return nil, err
		}
		if ctr["ringmeshd_queue_depth"] == 0 && ctr["ringmeshd_cache_inflight"] == 0 {
			if idle++; idle == 2 {
				return ctr, nil
			}
		} else {
			idle = 0
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon still busy after %s", timeout)
		}
	}
}

// submitPhase boots a fresh daemon and plays the open-loop schedule at
// the given rate for d.
func submitPhase(c *probeCtx, rate float64, d time.Duration) (*measurement, error) {
	stop, err := keepAwake() // as the serve-submit workload runs
	if err != nil {
		return nil, err
	}
	defer stop()
	s := newSubmitLoad(env{seed: c.seed, seconds: d.Seconds(), tmp: c.tmp})
	s.layers, s.rate = true, rate
	defer s.close()
	if err := s.setup(); err != nil {
		return nil, err
	}
	m, err := s.measure(d, nil)
	if err != nil {
		return nil, err
	}
	if m.failed > 0 {
		return nil, fmt.Errorf("serve-submit probe at %g req/s: %d of %d requests failed: %v", rate, m.failed, m.attempted, m.notes)
	}
	return m, nil
}

// probeServeSubmit runs a short serve-submit phase and reads the
// per-kind latencies, the server's own spans and counters, and the
// generator's lag from it.
func probeServeSubmit(c *probeCtx) error {
	m, err := submitPhase(c, submitRate, time.Duration(2.5*c.scale*float64(time.Second)))
	if err != nil {
		return err
	}
	for _, k := range []string{
		"serve.sweep_ms_p50", "serve.batch_ms_p50",
		"serve.queue_wait_ms_p50", "serve.queue_wait_ms_p95", "serve.run_ms_p50", "serve.store_ms_p50",
		"serve.shed_share", "serve.journal_appends_per_job", "serve.disk_writes_per_job",
		"loadgen.lag_ms_p95", "loadgen.poll_cycle_ms_p95",
	} {
		c.out[k] = m.layer[k]
	}
	// Server overhead: a single run's submit-to-terminal latency minus
	// what the same configurations cost called directly.
	direct, err := c.medianOf(func() (float64, error) {
		t := time.Now()
		for i := 0; i < 2; i++ { // one ring, one mesh: the mix run requests carry
			if _, err := ringmesh.Run(smallConfig(c.seed, 4000+i), smallSchedule); err != nil {
				return 0, err
			}
		}
		return ms(time.Since(t)) / 2, nil
	})
	if err != nil {
		return err
	}
	c.out["serve.overhead_ms_p50"] = m.layer["serve.run_op_ms_p50"] - direct
	return nil
}

// probeServeAck times the submission acknowledgement (POST to 202) on
// an otherwise idle daemon, with and without the journal's fsync.
func probeServeAck(c *probeCtx) error {
	for _, p := range []struct {
		name    string
		journal bool
	}{{"serve.ack_ms_p50", true}, {"serve.ack_ms_p50_nojournal", false}} {
		name, journal := p.name, p.journal
		dir, err := freshDir(c.tmp, "ack-")
		if err != nil {
			return err
		}
		srv, err := bootServer(dir, journal)
		if err != nil {
			return err
		}
		conn := newClient(srv.url)
		var acks []float64
		for i := 0; i < c.n(30) && err == nil; i++ {
			var status int
			var data []byte
			t := time.Now()
			status, data, err = conn.do("POST", "/v1/runs", runBody(smallConfig(c.seed, 5000+i), smallSchedule))
			acks = append(acks, ms(time.Since(t)))
			var doc jobDoc
			if err == nil {
				err = json.Unmarshal(data, &doc)
			}
			if err == nil && status != http.StatusAccepted {
				err = fmt.Errorf("ack probe: status %d: %s", status, data)
			}
			if err == nil {
				_, err = awaitJob(conn, doc.ID, time.Minute)
			}
		}
		conn.close()
		srv.stop()
		if err != nil {
			return err
		}
		c.out[name] = median(acks)
	}
	return nil
}

// probeRateLadder plays the submit schedule at 20, 40, 80 and 160
// req/s and reports the highest rate that keeps p95 within the limit
// with no failure and no backlog still growing at the end.
func probeRateLadder(c *probeCtx) error {
	best := 0.0
	for _, rate := range []float64{20, 40, 80, 160} {
		d := time.Duration(3 * c.scale * float64(time.Second))
		m, err := submitPhase(c, rate, d)
		if err != nil {
			break // a failed or refused request ends the ladder
		}
		p95 := quantile(sorted(m.latencies), 0.95)
		// The schedule spans d; a run that needed much longer than that
		// to finish was still working off a backlog.
		backlog := m.elapsed > d+d/4
		fmt.Printf("# ladder %g req/s: p95 %.1f ms, %d requests, ran %.2fs of %.2fs\n",
			rate, p95, m.attempted, m.elapsed.Seconds(), d.Seconds())
		if p95 > submitLimitMS || backlog {
			break
		}
		best = rate
	}
	c.out["serve.max_ok_rps"] = best
	return nil
}
