// Package exp declares one experiment per table and figure of the
// paper's evaluation, plus the ablation studies listed in DESIGN.md,
// as a table of values (figures.go) that one runner (Experiment.Run)
// executes: the same parameter sweep, the same series, rendered as
// text tables (and CSV) instead of plots.
package exp

import (
	"context"
	"errors"
	"sort"

	"ringmesh/internal/core"
	"ringmesh/internal/pool"
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
	// EngineWorkers is ignored: every point runs the serial engine, and
	// parallelism lives at the point level (Workers). The field stays
	// for callers that still set it.
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

// Experiment is one reproducible paper artifact, declared as data: its
// metadata, the curves to simulate and the summary tables derived from
// them. A table-only artifact has no curves.
type Experiment struct {
	ID      string
	Title   string
	Caption string

	xLabel, yLabel string
	// curves lists the figure's series in display order. It is
	// evaluated per Run, because choosing a sweep's ring hierarchies
	// costs milliseconds a process that only lists experiments should
	// not pay.
	curves func() []curve
	// tables derives the summary tables from the finished series.
	tables func([]Series) []Table
}

// curve is one series of a figure before it is measured.
type curve struct {
	label  string
	points []point
	// y reads the plotted value off a run result; nil means latency
	// (with its confidence interval).
	y metric
}

// point is one simulation of a curve: the sweep coordinate and the
// system to build. The runner fills cfg's Seed and Workers from the
// Spec.
type point struct {
	x   float64
	cfg core.SystemConfig
}

// metric projects a run result onto a figure's Y axis.
type metric func(core.Result) float64

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

// distinctConfigs flattens curves to the systems one Run simulates, in
// series-major order of first occurrence, and maps every configuration
// to its slot. Curves that plot different values of the same system
// (fig8's global and local utilization) share one simulation.
func distinctConfigs(curves []curve) ([]core.SystemConfig, map[core.SystemConfig]int) {
	var cfgs []core.SystemConfig
	slot := map[core.SystemConfig]int{}
	for _, c := range curves {
		for _, p := range c.points {
			if _, ok := slot[p.cfg]; !ok {
				slot[p.cfg] = len(cfgs)
				cfgs = append(cfgs, p.cfg)
			}
		}
	}
	return cfgs, slot
}

// Run simulates everything the experiment shows over the shared
// bounded worker pool (internal/pool, the same pool behind the serving
// daemon's queue) and returns its series, ordered by X, and tables.
// Every point runs even after a failure; the collected errors come
// back joined in a deterministic order.
func (e Experiment) Run(spec Spec) (Output, error) {
	out := Output{ID: e.ID, Title: e.Title, Caption: e.Caption, XLabel: e.xLabel, YLabel: e.yLabel}
	var curves []curve
	if e.curves != nil {
		curves = e.curves()
	}
	cfgs, slot := distinctConfigs(curves)
	// Each simulation writes only its own slot, so the fan-out needs no lock.
	results := make([]core.Result, len(cfgs))
	errs := pool.ForEach(context.Background(), spec.Workers, len(cfgs), func(i int) error {
		cfg := cfgs[i]
		cfg.Seed = spec.Seed
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return err
		}
		results[i], err = sys.Run(spec.Run)
		return err
	})
	if len(errs) > 0 {
		sort.Slice(errs, func(a, b int) bool { return errs[a].Error() < errs[b].Error() })
		return Output{}, errors.Join(errs...)
	}
	for _, c := range curves {
		s := Series{Label: c.label}
		for _, p := range c.points {
			r := results[slot[p.cfg]]
			pt := Point{X: p.x, Y: r.LatencyCycles, CI: r.LatencyCI95, Saturated: r.Saturated, Stalled: r.Stalled}
			if c.y != nil {
				pt.Y, pt.CI = c.y(r), 0
			}
			s.Points = append(s.Points, pt)
		}
		sort.Slice(s.Points, func(a, b int) bool { return s.Points[a].X < s.Points[b].X })
		out.Series = append(out.Series, s)
	}
	if e.tables != nil {
		out.Tables = e.tables(out.Series)
	}
	return out, nil
}
