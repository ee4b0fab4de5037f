package exp

import (
	"fmt"

	"ringmesh/internal/core"
	"ringmesh/internal/network"
	"ringmesh/internal/topo"
	"ringmesh/internal/workload"
)

// Axis labels most figures share.
const (
	nodesAxis   = "nodes"
	latencyAxis = "latency (network cycles)"
)

// lineSizes are the paper's four cache line sizes.
var lineSizes = []int{16, 32, 64, 128}

// doubleSpeedLines are the line sizes the paper plots for the
// double-speed global ring study (Figs 19-21).
var doubleSpeedLines = []int{32, 64, 128}

// mmrp is the paper's default workload (C=0.04, 70% reads) at the given
// window and access region; the figures' base case is T=4, R=1.0.
func mmrp(T int, R float64) workload.MMRP {
	wl := workload.PaperDefaults()
	wl.T, wl.R = T, R
	return wl
}

// --- Y projections -----------------------------------------------------

// utilMetric picks a ring utilization level as the Y value (percent).
func utilMetric(level int) metric {
	return func(r core.Result) float64 {
		if level < len(r.RingUtil) {
			return 100 * r.RingUtil[level]
		}
		return 0
	}
}

// localUtilMetric reports the lowest-level (local ring) utilization.
func localUtilMetric(r core.Result) float64 {
	if len(r.RingUtil) == 0 {
		return 0
	}
	return 100 * r.RingUtil[len(r.RingUtil)-1]
}

// meshUtilMetric reports the mesh's aggregate link utilization.
func meshUtilMetric(r core.Result) float64 { return 100 * r.MeshUtil }

// --- points --------------------------------------------------------------

// ringPoints sweeps one ring configuration (line size and switching
// options in net) over hierarchies; X is the processor count.
func ringPoints(specs []topo.RingSpec, net network.Config, wl workload.MMRP) []point {
	pts := make([]point, len(specs))
	for i, ts := range specs {
		net.Topology = ts.String()
		pts[i] = point{x: float64(ts.PMs()), cfg: core.SystemConfig{Network: "ring", Net: net, Workload: wl}}
	}
	return pts
}

// meshPoints sweeps the square meshes 2x2 .. 11x11; buf is the input
// buffer depth in flits (0 = cache-line-sized).
func meshPoints(line, buf int, wl workload.MMRP) []point {
	var pts []point
	for k := 2; k <= 11; k++ {
		pts = append(pts, point{x: float64(k * k), cfg: core.SystemConfig{
			Network:  "mesh",
			Net:      network.Config{Nodes: k * k, LineBytes: line, BufferFlits: buf},
			Workload: wl,
		}})
	}
	return pts
}

// knobPoints sweeps a parameter other than system size: X is the knob's
// value and cfg builds the system for it.
func knobPoints(values []int, cfg func(v int) core.SystemConfig) []point {
	pts := make([]point, len(values))
	for i, v := range values {
		pts[i] = point{x: float64(v), cfg: cfg(v)}
	}
	return pts
}

// --- ring hierarchies ----------------------------------------------------

// singleRings returns 1-level rings of the given sizes.
func singleRings(sizes ...int) []topo.RingSpec {
	out := make([]topo.RingSpec, len(sizes))
	for i, n := range sizes {
		out[i] = topo.MustRingSpec(n)
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

// --- shared curve sets -----------------------------------------------------

// threeLevelByLine plots y over the 3-level sweep of every line size
// (Figs 9 and 10).
func threeLevelByLine(y metric) func() []curve {
	return func() (cs []curve) {
		for _, line := range lineSizes {
			cs = append(cs, curve{
				label:  fmt.Sprintf("%dB cache line", line),
				points: ringPoints(threeLevelSweep(line), network.Config{LineBytes: line}, mmrp(4, 1.0)),
				y:      y,
			})
		}
		return cs
	}
}

// threeLevelBySpeed plots y over the 3-level sweep with a double- and
// a normal-speed global ring (Figs 19 and 20).
func threeLevelBySpeed(y metric) func() []curve {
	return func() (cs []curve) {
		for _, line := range doubleSpeedLines {
			for _, speed := range []string{"double", "normal"} {
				net := network.Config{LineBytes: line, DoubleSpeedGlobal: speed == "double"}
				cs = append(cs, curve{
					label:  fmt.Sprintf("%dB %s speed", line, speed),
					points: ringPoints(threeLevelSweep(line), net, mmrp(4, 1.0)),
					y:      y,
				})
			}
		}
		return cs
	}
}

// ringMeshPair is the ring-vs-mesh comparison of Figs 14-18 and 21 for
// one line size and workload: the ring curve over ringLadder, then the
// mesh curve. buf is the mesh buffer depth (0 = cl-sized) and dbl
// selects double-speed global rings. The cross-over and ratio tables
// read the pairs back as consecutive series.
func ringMeshPair(label string, line, buf int, dbl bool, wl workload.MMRP) []curve {
	ringNet := network.Config{LineBytes: line, DoubleSpeedGlobal: dbl}
	return []curve{
		{label: "ring " + label, points: ringPoints(specsForSizes(line, ringLadder(line)), ringNet, wl)},
		{label: "mesh " + label, points: meshPoints(line, buf, wl)},
	}
}
