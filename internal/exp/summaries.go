package exp

import (
	"fmt"
	"sort"
)

// summaries adapts per-table builders to Experiment.tables.
func summaries(builders ...func([]Series) Table) func([]Series) []Table {
	return func(series []Series) []Table {
		out := make([]Table, len(builders))
		for i, b := range builders {
			out[i] = b(series)
		}
		return out
	}
}

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

// growthTable reports the latency growth factor from the smallest to
// the largest measured size (the paper quotes 5-7x for cl buffers,
// 6-8x for 4-flit, 9-12x for 1-flit).
func growthTable(series []Series) Table {
	t := Table{
		Title:  "Latency growth factor, 4 to 121 processors",
		Header: []string{"series", "growth"},
	}
	for _, s := range series {
		if len(s.Points) < 2 {
			continue
		}
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if first.Y <= 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			s.Label,
			fmt.Sprintf("%.1fx (%.0f -> %.0f cycles)%s", last.Y/first.Y, first.Y, last.Y, flag(last)),
		})
	}
	return t
}

// crossoverTable summarizes the cross-over point of each consecutive
// (ring, mesh) series pair, as ringMeshPair lays them out.
func crossoverTable(note string) func([]Series) Table {
	return func(series []Series) Table {
		t := Table{
			Title:  "Cross-over points (nodes where the mesh becomes faster)" + note,
			Header: []string{"configuration", "cross-over (nodes)"},
		}
		for i := 0; i+1 < len(series); i += 2 {
			ringS, meshS := series[i], series[i+1]
			val := "none up to 121"
			if x := crossover(ringS, meshS); x > 0 {
				val = fmt.Sprintf("%.0f", x)
			}
			t.Rows = append(t.Rows, []string{meshS.Label, val})
		}
		return t
	}
}

// ratioTable reports the average mesh/ring latency ratio per (ring,
// mesh) series pair (>1 means rings faster).
func ratioTable(series []Series) Table {
	t := Table{
		Title:  "Mean mesh/ring latency ratio across common sizes (>1: rings faster)",
		Header: []string{"configuration", "mesh/ring ratio"},
	}
	for i := 0; i+1 < len(series); i += 2 {
		ringS, meshS := series[i], series[i+1]
		// Compare at ring Xs via interpolation on the mesh curve.
		sum, n := 0.0, 0
		for _, rp := range ringS.Points {
			my, ok := interpAt(meshS, rp.X)
			if !ok || rp.Y <= 0 {
				continue
			}
			sum += my / rp.Y
			n++
		}
		if n == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{meshS.Label, fmt.Sprintf("%.2f", sum/float64(n))})
	}
	return t
}

// memLatRatioTable reports the mesh/ring latency ratio at each memory
// latency of ablate-memlat: the mesh should stay ahead at this size
// for every service time (ordering robustness).
func memLatRatioTable(series []Series) Table {
	t := Table{Title: "mesh/ring latency ratio per memory latency", Header: []string{"mem latency", "ratio"}}
	ringS, meshS := series[0], series[1]
	for i, rp := range ringS.Points {
		if i < len(meshS.Points) && rp.Y > 0 {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f", rp.X),
				fmt.Sprintf("%.2f", meshS.Points[i].Y/rp.Y),
			})
		}
	}
	return t
}

// interpAt linearly interpolates a series at x.
func interpAt(s Series, x float64) (float64, bool) {
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

// crossover estimates the node count where series b (mesh) drops
// below series a (ring) by scanning the X values of both in order and
// linearly interpolating each curve. Returns 0 when no crossover is
// found in range.
func crossover(ringS, meshS Series) float64 {
	var grid []float64
	for _, p := range ringS.Points {
		grid = append(grid, p.X)
	}
	for _, p := range meshS.Points {
		grid = append(grid, p.X)
	}
	// An X both curves share appears twice; the repeat sees the same
	// difference and cannot be a sign change.
	sort.Float64s(grid)
	prevDiff, prevX, havePrev := 0.0, 0.0, false
	for _, x := range grid {
		ry, ok1 := interpAt(ringS, x)
		my, ok2 := interpAt(meshS, x)
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
