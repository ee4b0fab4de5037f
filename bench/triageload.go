package main

import (
	"fmt"
	"math/rand"
	"time"

	"ringmesh"
)

// triageGroup is the candidates that compete for one (line size, node
// count) cell of a topofind-style search, or all meshes of a line size.
type triageGroup struct {
	key   string // "cl=32,P=72" for rings, "cl=32,mesh" for meshes
	geoms []candidate
}

type candidate struct {
	cfg ringmesh.Config
	pms int
}

var (
	triageLines = []int{16, 32, 64, 128}
	triageR     = []float64{1.0, 0.5, 0.3, 0.2, 0.1}
	triageT     = []int{1, 2, 4}
)

// enumerateTriage lists every admissible ring hierarchy (at most 4
// levels, branching at most 3, leaf rings within the single-ring
// capacity) for 4..128 PMs at each line size, plus the square meshes
// 2x2..11x11 with 1-flit, 4-flit and line-sized buffers.
func enumerateTriage() []triageGroup {
	var groups []triageGroup
	for _, cl := range triageLines {
		for p := 4; p <= 128; p++ {
			g := triageGroup{key: fmt.Sprintf("cl=%d,P=%d", cl, p)}
			for _, t := range ringmesh.EnumerateRingTopologies(p, 4, 3, ringmesh.SingleRingCapacity(cl)) {
				g.geoms = append(g.geoms, candidate{ringmesh.Config{Network: "ring", Topology: t, LineBytes: cl}, p})
			}
			if len(g.geoms) > 0 {
				groups = append(groups, g)
			}
		}
		g := triageGroup{key: fmt.Sprintf("cl=%d,mesh", cl)}
		for k := 2; k <= 11; k++ {
			for _, buf := range []int{1, 4, 0} { // 0 selects line-sized buffers
				g.geoms = append(g.geoms, candidate{ringmesh.Config{Network: "mesh",
					Topology: fmt.Sprintf("%dx%d", k, k), LineBytes: cl, BufferFlits: buf}, k * k})
			}
		}
		groups = append(groups, g)
	}
	return groups
}

// triageCombos lists the R x T request mixes a candidate is asked at,
// the mix that decides a group's best geometry (R=1.0, T=4) first.
func triageCombos() [][2]float64 {
	out := [][2]float64{{1.0, 4}}
	for _, r := range triageR {
		for _, t := range triageT {
			if r != 1.0 || t != 4 {
				out = append(out, [2]float64{r, float64(t)})
			}
		}
	}
	return out
}

// triageLoad answers every candidate analytically, group by group in a
// seed-shuffled order, pass after pass until the time is up. A pass
// asks every candidate once, all at one R x T mix, and the passes cycle
// through the fifteen mixes: every pass holds the same 464 geometries
// (an estimate's cost depends on the geometry, a mesh costing five
// times a small ring, and not measurably on the mix), so every block
// of a run, and every run at any seed, measures the same work. One op
// is one ringmesh.Estimate; one block is one pass.
type triageLoad struct {
	env    env
	groups []triageGroup
	combos [][2]float64
	opt    ringmesh.RunOptions
}

func newTriageLoad(e env) *triageLoad {
	return &triageLoad{env: e, combos: triageCombos(), opt: ringmesh.DefaultRunOptions()}
}

func (w *triageLoad) setup() error {
	w.groups = enumerateTriage()
	rng := rand.New(rand.NewSource(int64(mix(w.env.seed, 0))))
	rng.Shuffle(len(w.groups), func(i, j int) { w.groups[i], w.groups[j] = w.groups[j], w.groups[i] })
	// One untimed estimate per group: lazily built tables exist and the
	// heap is grown before the first timed op.
	for _, g := range w.groups {
		if _, err := w.estimate(g.geoms[0].cfg, 1.0, 4, nil, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

func (w *triageLoad) estimate(cfg ringmesh.Config, r float64, t int, tr *tracer, parent, op int) (ringmesh.Result, error) {
	cfg.Workload = ringmesh.Workload{R: r, C: 0.04, T: t, ReadProb: 0.7}
	cfg.Fidelity = "analytic"
	cfg.Seed = w.env.seed
	sp := tr.begin("facade.Estimate", parent, op, 0)
	res, err := ringmesh.Estimate(cfg, w.opt)
	tr.end(sp)
	return res, err
}

func (w *triageLoad) measure(d time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{}
	cycles := float64(w.opt.WarmupCycles + w.opt.BatchCycles*int64(w.opt.Batches))
	k := m.startMeter()
	defer k.finish()
	// The deadline is checked between passes, so every pass a run
	// reports was answered completely; the first always is.
	for pass := 0; pass == 0 || time.Since(k.start) < d; pass++ {
		r, t := w.combos[pass%len(w.combos)][0], int(w.combos[pass%len(w.combos)][1])
		for _, g := range w.groups {
			best, bestLat := "", 0.0
			for _, geom := range g.geoms {
				i := m.attempted
				op := tr.begin("op", 0, i, 0)
				t0 := time.Now()
				res, err := w.estimate(geom.cfg, r, t, tr, op, i)
				m.latencies = append(m.latencies, ms(time.Since(t0)))
				tr.end(op)
				m.attempted++
				// The simulated work this answer stands in for.
				m.pmcycles += float64(geom.pms) * cycles
				switch {
				case err != nil:
					m.fail("%s %s R=%g T=%d: %v", g.key, geom.cfg.Topology, r, t, err)
				case res.Fidelity != "analytic" || !(res.LatencyCycles > 0):
					m.fail("%s %s R=%g T=%d: fidelity %q latency %g", g.key, geom.cfg.Topology, r, t, res.Fidelity, res.LatencyCycles)
				case geom.cfg.Network == "ring" && (best == "" || res.LatencyCycles < bestLat):
					best, bestLat = geom.cfg.Topology, res.LatencyCycles
				}
			}
			if pass == 0 && best != "" {
				m.output(g.key, best)
			}
		}
		k.cut()
	}
	return m, nil
}

func (w *triageLoad) close() {}
