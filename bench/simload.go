package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"ringmesh"
)

// simSpec fixes one simulator workload: the geometry and the schedule
// of every run. An op is a pair of runs — one at high load (R=1.0,
// T=4) and one at low load (R=0.2, T=1), both at C=0.04 — so every
// latency sample covers both regimes and the distribution has one
// mode. Schedules are shorter than DefaultRunOptions so a sixteen-second
// run holds enough ops to report a tail; steady state is reached well
// inside the warm-up at these sizes.
type simSpec struct {
	name string
	base ringmesh.Config
	opt  ringmesh.RunOptions
}

var (
	ringSim = simSpec{
		name: "ring-sim",
		base: ringmesh.Config{Network: "ring", Topology: "3:3:8", LineBytes: 32},
		opt:  ringmesh.RunOptions{WarmupCycles: 1000, BatchCycles: 1000, Batches: 3},
	}
	meshSim = simSpec{
		name: "mesh-sim",
		base: ringmesh.Config{Network: "mesh", Topology: "11x11", LineBytes: 32, BufferFlits: 4},
		opt:  ringmesh.RunOptions{WarmupCycles: 500, BatchCycles: 500, Batches: 3},
	}
)

var (
	hiLoad = ringmesh.Workload{R: 1.0, C: 0.04, T: 4, ReadProb: 0.7}
	loLoad = ringmesh.Workload{R: 0.2, C: 0.04, T: 1, ReadProb: 0.7}
)

// pinnedOps is how many leading ops have their result digests pinned
// under expected/ at the pinned seed.
const pinnedOps = 16

type simLoad struct {
	env  env
	spec simSpec
	// rerunDiffers records a failed determinism check from set-up; the
	// measured phase reports it as a failed op.
	rerunDiffers bool
	pms          int
}

func newSimLoad(e env, spec simSpec) *simLoad { return &simLoad{env: e, spec: spec} }

func (w *simLoad) cycles() int64 {
	return w.spec.opt.WarmupCycles + w.spec.opt.BatchCycles*int64(w.spec.opt.Batches)
}

// runOp executes op i — the high-load run, then the low-load run, each
// with its own derived seed — and returns both results as JSON.
func (w *simLoad) runOp(i int, tr *tracer) ([]byte, []ringmesh.Result, error) {
	op := tr.begin("op", 0, i, 0)
	defer tr.end(op)
	var results []ringmesh.Result
	for k, wl := range []ringmesh.Workload{hiLoad, loLoad} {
		cfg := w.spec.base
		cfg.Workload = wl
		cfg.Seed = mix(w.env.seed, uint64(2*i+k))
		// NewSystem followed by System.Run is what ringmesh.Run does;
		// calling them apart lets the traced pass time each.
		sp := tr.begin("facade.NewSystem", op, i, 0)
		sys, err := ringmesh.NewSystem(cfg)
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		sp = tr.begin("facade.Run", op, i, 0)
		res, err := sys.Run(w.spec.opt)
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, res)
	}
	doc, err := json.Marshal(results)
	return doc, results, err
}

// setup runs op 0 twice: the pair warms the heap, and the two result
// documents must be byte-identical (same seed, same result).
func (w *simLoad) setup() error {
	cfg := w.spec.base
	cfg.Workload = hiLoad
	sys, err := ringmesh.NewSystem(cfg)
	if err != nil {
		return err
	}
	w.pms = sys.PMs()
	a, _, err := w.runOp(0, nil)
	if err != nil {
		return err
	}
	b, _, err := w.runOp(0, nil)
	if err != nil {
		return err
	}
	w.rerunDiffers = !bytes.Equal(a, b)
	return nil
}

func (w *simLoad) measure(d time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{}
	if w.rerunDiffers {
		m.fail("op 0 re-run produced a different result document")
	}
	opCycles := 2 * float64(w.pms) * float64(w.cycles())
	k := m.startMeter()
	defer k.finish()
	for i := 0; time.Since(k.start) < d; i++ {
		k.cutAfter(blockSpan(d))
		t := time.Now()
		doc, results, err := w.runOp(i, tr)
		m.latencies = append(m.latencies, ms(time.Since(t)))
		m.attempted++
		m.pmcycles += opCycles
		if err != nil {
			m.fail("op %d: %v", i, err)
			continue
		}
		for _, r := range results {
			if r.Completed > r.Issued || r.Observations <= 0 || r.Stalled {
				m.fail("op %d: implausible result completed=%d issued=%d observations=%d stalled=%v",
					i, r.Completed, r.Issued, r.Observations, r.Stalled)
				break
			}
		}
		if i < pinnedOps {
			m.output(fmt.Sprintf("op%02d", i), digest(string(doc)))
		}
	}
	return m, nil
}

func (w *simLoad) close() {}
