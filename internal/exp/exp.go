// Package exp defines one runnable experiment per table and figure of
// the paper's evaluation, plus the ablation studies listed in
// DESIGN.md. Each experiment reproduces the corresponding artifact's
// data: the same parameter sweep, the same series, rendered as text
// tables (and CSV) instead of plots.
package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"

	"ringmesh/internal/core"
	"ringmesh/internal/network"
	"ringmesh/internal/pool"
	"ringmesh/internal/topo"
	"ringmesh/internal/workload"
)

// Point is one measurement in a series.
type Point struct {
	// X is the sweep coordinate (usually the number of PMs).
	X float64
	// Y is the measured value (latency in PM cycles, or utilization
	// in percent).
	Y float64
	// CI is the 95% confidence half-width on Y when it is a latency.
	CI float64
	// Saturated / Stalled flag measurements taken past the network's
	// saturation point (latency then underestimates open-loop delay).
	Saturated bool
	Stalled   bool
}

// Series is one labelled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Table is a rendered result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Output is everything an experiment produces.
type Output struct {
	ID      string
	Title   string
	Caption string
	XLabel  string
	YLabel  string
	Series  []Series
	Tables  []Table
}

// Spec controls how an experiment's simulations run.
type Spec struct {
	// Seed makes the whole experiment reproducible.
	Seed uint64
	// Run is the per-point batch-means schedule.
	Run core.RunConfig
	// Workers bounds concurrent simulations (0 = 1).
	Workers int
	// EngineWorkers is each mesh simulation's parallel tick worker count
	// (0 or 1 = the exact serial engine; rings run it at any value). It
	// is capped so Workers x EngineWorkers never exceeds the machine's
	// CPUs — point-level and engine-level parallelism share one budget.
	// Results are identical at any value: the parallel engine is
	// golden-tested bit-identical to serial.
	EngineWorkers int
}

// DefaultSpec returns the paper-fidelity schedule.
func DefaultSpec() Spec {
	return Spec{Seed: 42, Run: core.DefaultRunConfig(), Workers: 4}
}

// QuickSpec returns a reduced schedule for smoke tests and benches
// (same sweeps, shorter runs).
func QuickSpec() Spec {
	return Spec{Seed: 42, Run: core.QuickRunConfig(), Workers: 4}
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID      string
	Title   string
	Caption string
	Run     func(Spec) (Output, error)
}

// registry holds experiments in paper order.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in paper order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists registered experiment ids in order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return ids
}

// --- simulation point helpers -----------------------------------------

// seriesMetric extracts one series' point from a run result.
type seriesMetric struct {
	series int
	metric func(x float64, r core.Result) Point
}

// job is one simulation to run. It feeds one series (series/metric)
// or, when multi is set, several series from the same run.
type job struct {
	series int
	x      float64
	build  func() (*core.System, error)
	// metric converts the run result into a point; nil means latency.
	metric func(x float64, r core.Result) Point
	// multi, when non-empty, emits one point per entry instead of the
	// single series/metric pair (used when several series share one
	// simulation, e.g. global and local utilization).
	multi []seriesMetric
}

// runJobs executes jobs over the shared bounded worker pool
// (internal/pool, the same pool behind facade sweeps and the serving
// daemon's queue) and fills the given series' points, ordered by X
// within each series. Every job runs even after a failure; the
// collected errors come back joined in a deterministic order.
func runJobs(spec Spec, nSeries int, jobs []job) ([][]Point, error) {
	type seriesPoint struct {
		series int
		p      Point
	}
	// Each job writes only its own slot, so the fan-out needs no lock.
	results := make([][]seriesPoint, len(jobs))
	errs := pool.ForEach(context.Background(), spec.Workers, len(jobs), func(i int) error {
		j := jobs[i]
		sys, err := j.build()
		if err != nil {
			return err
		}
		r, err := sys.Run(spec.Run)
		if err != nil {
			return err
		}
		if len(j.multi) > 0 {
			for _, m := range j.multi {
				results[i] = append(results[i], seriesPoint{series: m.series, p: m.metric(j.x, r)})
			}
			return nil
		}
		p := Point{
			X: j.x, Y: r.Latency, CI: r.LatencyCI,
			Saturated: r.Saturated, Stalled: r.Stalled,
		}
		if j.metric != nil {
			p = j.metric(j.x, r)
		}
		results[i] = []seriesPoint{{series: j.series, p: p}}
		return nil
	})
	if len(errs) > 0 {
		sort.Slice(errs, func(a, b int) bool { return errs[a].Error() < errs[b].Error() })
		return nil, errors.Join(errs...)
	}
	points := make([][]Point, nSeries)
	for _, rs := range results {
		for _, sp := range rs {
			points[sp.series] = append(points[sp.series], sp.p)
		}
	}
	for i := range points {
		sort.Slice(points[i], func(a, b int) bool { return points[i][a].X < points[i][b].X })
	}
	return points, nil
}

// netBuilder returns a constructor for one simulation point over any
// registered interconnect; every experiment's points flow through it.
func netBuilder(spec Spec, name string, net network.Config, wl workload.MMRP, memLat int) func() (*core.System, error) {
	return func() (*core.System, error) {
		return core.NewSystem(core.SystemConfig{
			Network:    name,
			Net:        net,
			Workload:   wl,
			MemLatency: memLat,
			Seed:       spec.Seed,
			Workers:    pool.CapInner(runtime.NumCPU(), spec.Workers, spec.EngineWorkers),
		})
	}
}

// ringBuilder returns a constructor for one ring simulation point.
func ringBuilder(spec Spec, topology topo.RingSpec, line int, wl workload.MMRP, dbl bool) func() (*core.System, error) {
	return netBuilder(spec, "ring", network.Config{
		Topology:          topology.String(),
		LineBytes:         line,
		DoubleSpeedGlobal: dbl,
	}, wl, 0)
}

// meshBuilder returns a constructor for one mesh simulation point.
func meshBuilder(spec Spec, k, line, buf int, wl workload.MMRP) func() (*core.System, error) {
	return netBuilder(spec, "mesh", network.Config{
		Nodes:       k * k,
		LineBytes:   line,
		BufferFlits: buf,
	}, wl, 0)
}

// sweepTopologyFor returns a hierarchy for n PMs at the given line
// size, following the paper's construction: leaf rings bounded by the
// single-ring capacity and internal branching of at most three. Where
// the paper sweeps past the last balanced configuration (its latency
// figures extend beyond Table 2's largest entries) the branching
// bound is widened until a hierarchy exists.
func sweepTopologyFor(n, line int) (topo.RingSpec, error) {
	if spec, err := network.RingTopologyFor(n, line); err == nil {
		return spec, nil
	}
	cap := network.SingleRingCapacity[line]
	if cap == 0 {
		return topo.RingSpec{}, fmt.Errorf("exp: unsupported line size %dB", line)
	}
	for branch := 4; branch <= 8; branch++ {
		if specs := topo.EnumerateRingSpecs(n, 4, branch, cap); len(specs) > 0 {
			return network.BestRingSpec(specs), nil
		}
	}
	return topo.RingSpec{}, fmt.Errorf("exp: no ring topology for %d PMs at %dB lines", n, line)
}

// ringLadder is the node-count sweep the paper uses for each cache
// line size (drawn from Table 2 plus the figure extents).
func ringLadder(line int) []int {
	switch line {
	case 16:
		return []int{4, 8, 12, 24, 36, 54, 72, 108}
	case 32:
		return []int{4, 8, 16, 24, 48, 72, 96, 120}
	case 64:
		return []int{4, 6, 12, 18, 36, 54, 72, 108}
	case 128:
		return []int{4, 8, 12, 24, 36, 72, 108}
	default:
		return nil
	}
}

// meshLadder is the square mesh sweep (2x2 .. 11x11).
func meshLadder() []int { return []int{4, 9, 16, 25, 36, 49, 64, 81, 100, 121} }

// lineSizes are the paper's four cache line sizes.
var lineSizes = []int{16, 32, 64, 128}

// baseWorkload is the paper's default (R=1.0, C=0.04, T=4, 70% reads).
func baseWorkload() workload.MMRP { return workload.PaperDefaults() }

// flag renders saturation/stall markers for tables.
func flag(p Point) string {
	switch {
	case p.Stalled:
		return " (stalled)"
	case p.Saturated:
		return " (saturated)"
	default:
		return ""
	}
}

// crossover estimates the node count where series b (mesh) drops
// below series a (ring) by scanning X in merged order and linearly
// interpolating each curve. Returns 0 when no crossover is found in
// range.
func crossover(ringS, meshS Series) float64 {
	interp := func(s Series, x float64) (float64, bool) {
		pts := s.Points
		if len(pts) == 0 || x < pts[0].X || x > pts[len(pts)-1].X {
			return 0, false
		}
		for i := 1; i < len(pts); i++ {
			if x <= pts[i].X {
				x0, y0 := pts[i-1].X, pts[i-1].Y
				x1, y1 := pts[i].X, pts[i].Y
				if x1 == x0 {
					return y1, true
				}
				return y0 + (y1-y0)*(x-x0)/(x1-x0), true
			}
		}
		return pts[len(pts)-1].Y, true
	}
	// Collect candidate xs.
	xs := map[float64]bool{}
	for _, p := range ringS.Points {
		xs[p.X] = true
	}
	for _, p := range meshS.Points {
		xs[p.X] = true
	}
	var grid []float64
	for x := range xs {
		grid = append(grid, x)
	}
	sort.Float64s(grid)
	prevDiff := 0.0
	prevX := 0.0
	havePrev := false
	for _, x := range grid {
		ry, ok1 := interp(ringS, x)
		my, ok2 := interp(meshS, x)
		if !ok1 || !ok2 {
			continue
		}
		diff := ry - my // positive once mesh is faster
		if havePrev && prevDiff < 0 && diff >= 0 {
			// Linear interpolation of the sign change.
			t := prevDiff / (prevDiff - diff)
			return prevX + t*(x-prevX)
		}
		prevDiff, prevX, havePrev = diff, x, true
	}
	return 0
}
