package exp

import (
	"fmt"

	"ringmesh/internal/core"
	"ringmesh/internal/network"
	"ringmesh/internal/topo"
	"ringmesh/internal/workload"
)

// specsForSizes maps node counts to sweep topologies, dropping sizes
// with no admissible hierarchy.
func specsForSizes(line int, sizes []int) []topo.RingSpec {
	var out []topo.RingSpec
	for _, n := range sizes {
		if s, err := sweepTopologyFor(n, line); err == nil {
			out = append(out, s)
		}
	}
	return out
}

// threeLevelSweep returns the paper's 3-level configurations for a
// line size: j second-level rings (each maxed at 3 local rings of the
// single-ring capacity), j = 2..6, capped at 121 PMs.
func threeLevelSweep(line int) []topo.RingSpec {
	leaf := network.SingleRingCapacity[line]
	out := []topo.RingSpec{topo.MustRingSpec(2, 2, leaf)}
	for j := 2; j <= 10; j++ {
		spec := topo.MustRingSpec(j, 3, leaf)
		if spec.PMs() > 121 {
			break
		}
		out = append(out, spec)
	}
	return out
}

// twoLevelSweep returns k local rings of the line size's single-ring
// capacity, k = 2..6.
func twoLevelSweep(line int) []topo.RingSpec {
	leaf := network.SingleRingCapacity[line]
	var out []topo.RingSpec
	for k := 2; k <= 6; k++ {
		out = append(out, topo.MustRingSpec(k, leaf))
	}
	return out
}

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "Latency for single rings with different cache line sizes",
		Caption: "Paper Figure 6: average round-trip latency of 1-level rings, R=1.0 C=0.04, " +
			"T in {1,2,4}, cache lines 16/32/64/128B. The paper concludes single rings " +
			"conservatively sustain 12/8/6/4 nodes respectively.",
		Run: runFig6,
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Latency for 2-level ring hierarchies",
		Caption: "Paper Figure 7: 2-level hierarchies with maximally sized local rings, " +
			"R=1.0 C=0.04 T=4. Slope increases when a global ring becomes necessary and " +
			"again past three local rings (bisection bandwidth).",
		Run: runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Local and global ring utilization for 2-level ring hierarchies",
		Caption: "Paper Figure 8: global ring utilization approaches saturation at three " +
			"local rings while local ring utilization falls.",
		Run: runFig8,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Latency for 3-level ring hierarchies",
		Caption: "Paper Figure 9: 3-level hierarchies, R=1.0 C=0.04 T=4; up to three " +
			"maximal 2-level systems are sustainable per global ring.",
		Run: runFig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Global ring utilization for 3-level ring hierarchies",
		Caption: "Paper Figure 10: the global ring saturates beyond three second-level " +
			"rings, reinforcing the bisection bandwidth constraint.",
		Run: runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Latency for hierarchies with 1-4 levels (32B lines)",
		Caption: "Paper Figure 11: each extra level shifts the latency curve right; the " +
			"benefit is largest for workloads with locality (panel b, R=0.2 vs panel a, R=1.0). T=2.",
		Run: runFig11,
	})
	register(Experiment{
		ID:    "fig19",
		Title: "3-level ring latency with normal- vs double-speed global rings",
		Caption: "Paper Figure 19: doubling the global ring clock lets the hierarchy " +
			"sustain five (not three) second-level rings, R=1.0 C=0.04 T=4.",
		Run: runFig19,
	})
	register(Experiment{
		ID:    "fig20",
		Title: "Global ring utilization, normal vs double speed",
		Caption: "Paper Figure 20: double-speed global ring utilization grows more slowly " +
			"and more linearly.",
		Run: runFig20,
	})
}

func runFig6(spec Spec) (Output, error) {
	out := Output{
		ID: "fig6", XLabel: "nodes", YLabel: "latency (network cycles)",
	}
	sizes := []int{4, 6, 8, 12, 16, 24, 32, 48, 64}
	var jobs []job
	for _, line := range lineSizes {
		for _, T := range []int{1, 2, 4} {
			wl := baseWorkload()
			wl.T = T
			label := fmt.Sprintf("%dB T=%d", line, T)
			si := len(out.Series)
			out.Series = append(out.Series, Series{Label: label})
			for _, n := range sizes {
				jobs = append(jobs, job{
					series: si, x: float64(n),
					build: ringBuilder(spec, topo.MustRingSpec(n), line, wl, false),
				})
			}
		}
	}
	pts, err := runJobs(spec, len(out.Series), jobs)
	if err != nil {
		return Output{}, err
	}
	attach(&out, pts)
	out.Tables = append(out.Tables, sustainableTable(out.Series))
	return out, nil
}

// sustainableTable reports, per series, the largest size whose latency
// stays within 1.5x of the smallest size's latency — the paper's
// "almost no performance degradation" criterion made precise.
func sustainableTable(series []Series) Table {
	t := Table{
		Title:  "Largest size with latency within 1.5x of the minimum (cf. paper: 12/8/6/4 nodes at T=4)",
		Header: []string{"series", "sustainable nodes"},
	}
	for _, s := range series {
		if len(s.Points) == 0 {
			continue
		}
		base := s.Points[0].Y
		best := int(s.Points[0].X)
		for _, p := range s.Points {
			if p.Y <= 1.5*base && !p.Saturated && !p.Stalled {
				best = int(p.X)
			}
		}
		t.Rows = append(t.Rows, []string{s.Label, fmt.Sprintf("%d", best)})
	}
	return t
}

func runFig7(spec Spec) (Output, error) {
	out := Output{ID: "fig7", XLabel: "nodes", YLabel: "latency (network cycles)"}
	var jobs []job
	for _, line := range lineSizes {
		si := len(out.Series)
		out.Series = append(out.Series, Series{Label: fmt.Sprintf("%dB cache line", line)})
		leaf := network.SingleRingCapacity[line]
		// Single maximal ring first, then 2..6 local rings.
		sweep := append([]topo.RingSpec{topo.MustRingSpec(leaf)}, twoLevelSweep(line)...)
		for _, ts := range sweep {
			jobs = append(jobs, job{
				series: si, x: float64(ts.PMs()),
				build: ringBuilder(spec, ts, line, baseWorkload(), false),
			})
		}
	}
	pts, err := runJobs(spec, len(out.Series), jobs)
	if err != nil {
		return Output{}, err
	}
	attach(&out, pts)
	return out, nil
}

// utilMetric picks a ring utilization level as the Y value (percent).
func utilMetric(level int) func(x float64, r core.Result) Point {
	return func(x float64, r core.Result) Point {
		y := 0.0
		if level < len(r.RingUtil) {
			y = 100 * r.RingUtil[level]
		}
		return Point{X: x, Y: y, Saturated: r.Saturated, Stalled: r.Stalled}
	}
}

// localUtilMetric reports the lowest-level (local ring) utilization.
func localUtilMetric() func(x float64, r core.Result) Point {
	return func(x float64, r core.Result) Point {
		y := 0.0
		if len(r.RingUtil) > 0 {
			y = 100 * r.RingUtil[len(r.RingUtil)-1]
		}
		return Point{X: x, Y: y, Saturated: r.Saturated, Stalled: r.Stalled}
	}
}

func runFig8(spec Spec) (Output, error) {
	out := Output{ID: "fig8", XLabel: "nodes", YLabel: "ring utilization (%)"}
	var jobs []job
	for _, line := range lineSizes {
		gi := len(out.Series)
		out.Series = append(out.Series, Series{Label: fmt.Sprintf("%dB global", line)})
		li := len(out.Series)
		out.Series = append(out.Series, Series{Label: fmt.Sprintf("%dB local", line)})
		for _, ts := range twoLevelSweep(line) {
			// One simulation yields both the global and the local
			// utilization series.
			jobs = append(jobs, job{
				x:     float64(ts.PMs()),
				build: ringBuilder(spec, ts, line, baseWorkload(), false),
				multi: []seriesMetric{
					{series: gi, metric: utilMetric(0)},
					{series: li, metric: localUtilMetric()},
				},
			})
		}
	}
	pts, err := runJobs(spec, len(out.Series), jobs)
	if err != nil {
		return Output{}, err
	}
	attach(&out, pts)
	return out, nil
}

func runFig9(spec Spec) (Output, error) {
	out := Output{ID: "fig9", XLabel: "nodes", YLabel: "latency (network cycles)"}
	var jobs []job
	for _, line := range lineSizes {
		si := len(out.Series)
		out.Series = append(out.Series, Series{Label: fmt.Sprintf("%dB cache line", line)})
		for _, ts := range threeLevelSweep(line) {
			jobs = append(jobs, job{
				series: si, x: float64(ts.PMs()),
				build: ringBuilder(spec, ts, line, baseWorkload(), false),
			})
		}
	}
	pts, err := runJobs(spec, len(out.Series), jobs)
	if err != nil {
		return Output{}, err
	}
	attach(&out, pts)
	return out, nil
}

func runFig10(spec Spec) (Output, error) {
	out := Output{ID: "fig10", XLabel: "nodes", YLabel: "global ring utilization (%)"}
	var jobs []job
	for _, line := range lineSizes {
		si := len(out.Series)
		out.Series = append(out.Series, Series{Label: fmt.Sprintf("%dB cache line", line)})
		for _, ts := range threeLevelSweep(line) {
			jobs = append(jobs, job{
				series: si, x: float64(ts.PMs()),
				build:  ringBuilder(spec, ts, line, baseWorkload(), false),
				metric: utilMetric(0),
			})
		}
	}
	pts, err := runJobs(spec, len(out.Series), jobs)
	if err != nil {
		return Output{}, err
	}
	attach(&out, pts)
	return out, nil
}

func runFig11(spec Spec) (Output, error) {
	out := Output{ID: "fig11", XLabel: "nodes", YLabel: "latency (network cycles)"}
	const line = 32
	levelSweeps := map[string][]topo.RingSpec{
		"1-level": {topo.MustRingSpec(4), topo.MustRingSpec(8), topo.MustRingSpec(12),
			topo.MustRingSpec(16), topo.MustRingSpec(24)},
		"2-level": {topo.MustRingSpec(2, 8), topo.MustRingSpec(3, 8), topo.MustRingSpec(4, 8),
			topo.MustRingSpec(5, 8), topo.MustRingSpec(6, 8)},
		"3-level": {topo.MustRingSpec(2, 3, 8), topo.MustRingSpec(3, 3, 8),
			topo.MustRingSpec(4, 3, 8), topo.MustRingSpec(5, 3, 8)},
		"4-level": {topo.MustRingSpec(2, 2, 2, 6), topo.MustRingSpec(2, 2, 2, 8),
			topo.MustRingSpec(2, 2, 3, 8), topo.MustRingSpec(3, 3, 3, 4)},
	}
	order := []string{"1-level", "2-level", "3-level", "4-level"}
	var jobs []job
	for _, panel := range []struct {
		r     float64
		label string
	}{{1.0, "R=1.0"}, {0.2, "R=0.2"}} {
		wl := baseWorkload()
		wl.R = panel.r
		wl.T = 2
		for _, lv := range order {
			si := len(out.Series)
			out.Series = append(out.Series, Series{Label: lv + " " + panel.label})
			for _, ts := range levelSweeps[lv] {
				jobs = append(jobs, job{
					series: si, x: float64(ts.PMs()),
					build: ringBuilder(spec, ts, line, wl, false),
				})
			}
		}
	}
	pts, err := runJobs(spec, len(out.Series), jobs)
	if err != nil {
		return Output{}, err
	}
	attach(&out, pts)
	return out, nil
}

// fig19Lines are the line sizes the paper plots for the double-speed
// study.
var fig19Lines = []int{32, 64, 128}

func runFig19(spec Spec) (Output, error) {
	out := Output{ID: "fig19", XLabel: "nodes", YLabel: "latency (network cycles)"}
	var jobs []job
	for _, line := range fig19Lines {
		for _, dbl := range []bool{true, false} {
			name := "normal speed"
			if dbl {
				name = "double speed"
			}
			si := len(out.Series)
			out.Series = append(out.Series, Series{Label: fmt.Sprintf("%dB %s", line, name)})
			for _, ts := range threeLevelSweep(line) {
				jobs = append(jobs, job{
					series: si, x: float64(ts.PMs()),
					build: ringBuilder(spec, ts, line, baseWorkload(), dbl),
				})
			}
		}
	}
	pts, err := runJobs(spec, len(out.Series), jobs)
	if err != nil {
		return Output{}, err
	}
	attach(&out, pts)
	return out, nil
}

func runFig20(spec Spec) (Output, error) {
	out := Output{ID: "fig20", XLabel: "nodes", YLabel: "global ring utilization (%)"}
	var jobs []job
	for _, line := range fig19Lines {
		for _, dbl := range []bool{true, false} {
			name := "normal speed"
			if dbl {
				name = "double speed"
			}
			si := len(out.Series)
			out.Series = append(out.Series, Series{Label: fmt.Sprintf("%dB %s", line, name)})
			for _, ts := range threeLevelSweep(line) {
				jobs = append(jobs, job{
					series: si, x: float64(ts.PMs()),
					build:  ringBuilder(spec, ts, line, baseWorkload(), dbl),
					metric: utilMetric(0),
				})
			}
		}
	}
	pts, err := runJobs(spec, len(out.Series), jobs)
	if err != nil {
		return Output{}, err
	}
	attach(&out, pts)
	return out, nil
}

// attach copies runner output into the series and fills experiment
// metadata from the registry.
func attach(out *Output, pts [][]Point) {
	for i := range out.Series {
		out.Series[i].Points = pts[i]
	}
	if e, ok := ByID(out.ID); ok {
		out.Title, out.Caption = e.Title, e.Caption
	}
}

// Ensure workload import is used even if sweeps change.
var _ = workload.PaperDefaults
