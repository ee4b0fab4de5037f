package exp

import (
	"fmt"

	"ringmesh/internal/core"
	"ringmesh/internal/network"
	"ringmesh/internal/topo"
)

// registry is the experiment table, in paper order: the two tables,
// Figures 6-21, then the ablations. Adding an artifact is adding one
// value here; Experiment.Run does the rest.
var registry = []Experiment{
	{
		ID:    "table1",
		Title: "NIC buffer memory requirements, rings vs meshes",
		Caption: "Paper Table 1: under equal pin budgets a ring NIC needs one cl-sized ring " +
			"buffer (cl x 16B) while a mesh NIC needs four input buffers (4 x depth x 4B). " +
			"This reproduction adds a second cl-sized ring buffer per NIC for the virtual-" +
			"channel deadlock fix (see DESIGN.md), shown alongside the paper's figure.",
		tables: summaries(nicBufferTable),
	},
	{
		ID:    "table2",
		Title: "Optimal hierarchical ring topology per (processors, cache line size)",
		Caption: "Paper Table 2: best topology for workloads with no locality (R=1.0 " +
			"C=0.04). Our search constrains leaf rings to the single-ring capacity " +
			"(12/8/6/4 PMs at 16/32/64/128B) and internal branching to three (the " +
			"bisection limit), then minimizes depth and average hop distance.",
		tables: topologyTables,
	},
	{
		ID:    "fig6",
		Title: "Latency for single rings with different cache line sizes",
		Caption: "Paper Figure 6: average round-trip latency of 1-level rings, R=1.0 C=0.04, " +
			"T in {1,2,4}, cache lines 16/32/64/128B. The paper concludes single rings " +
			"conservatively sustain 12/8/6/4 nodes respectively.",
		xLabel: nodesAxis, yLabel: latencyAxis,
		curves: func() (cs []curve) {
			rings := singleRings(4, 6, 8, 12, 16, 24, 32, 48, 64)
			for _, line := range lineSizes {
				for _, T := range []int{1, 2, 4} {
					cs = append(cs, curve{
						label:  fmt.Sprintf("%dB T=%d", line, T),
						points: ringPoints(rings, network.Config{LineBytes: line}, mmrp(T, 1.0)),
					})
				}
			}
			return cs
		},
		tables: summaries(sustainableTable),
	},
	{
		ID:    "fig7",
		Title: "Latency for 2-level ring hierarchies",
		Caption: "Paper Figure 7: 2-level hierarchies with maximally sized local rings, " +
			"R=1.0 C=0.04 T=4. Slope increases when a global ring becomes necessary and " +
			"again past three local rings (bisection bandwidth).",
		xLabel: nodesAxis, yLabel: latencyAxis,
		curves: func() (cs []curve) {
			for _, line := range lineSizes {
				// Single maximal ring first, then 2..6 local rings.
				sweep := append(singleRings(network.SingleRingCapacity[line]), twoLevelSweep(line)...)
				cs = append(cs, curve{
					label:  fmt.Sprintf("%dB cache line", line),
					points: ringPoints(sweep, network.Config{LineBytes: line}, mmrp(4, 1.0)),
				})
			}
			return cs
		},
	},
	{
		ID:    "fig8",
		Title: "Local and global ring utilization for 2-level ring hierarchies",
		Caption: "Paper Figure 8: global ring utilization approaches saturation at three " +
			"local rings while local ring utilization falls.",
		xLabel: nodesAxis, yLabel: "ring utilization (%)",
		curves: func() (cs []curve) {
			for _, line := range lineSizes {
				// Both curves read the same simulations.
				pts := ringPoints(twoLevelSweep(line), network.Config{LineBytes: line}, mmrp(4, 1.0))
				cs = append(cs,
					curve{label: fmt.Sprintf("%dB global", line), points: pts, y: utilMetric(0)},
					curve{label: fmt.Sprintf("%dB local", line), points: pts, y: localUtilMetric})
			}
			return cs
		},
	},
	{
		ID:    "fig9",
		Title: "Latency for 3-level ring hierarchies",
		Caption: "Paper Figure 9: 3-level hierarchies, R=1.0 C=0.04 T=4; up to three " +
			"maximal 2-level systems are sustainable per global ring.",
		xLabel: nodesAxis, yLabel: latencyAxis,
		curves: threeLevelByLine(nil),
	},
	{
		ID:    "fig10",
		Title: "Global ring utilization for 3-level ring hierarchies",
		Caption: "Paper Figure 10: the global ring saturates beyond three second-level " +
			"rings, reinforcing the bisection bandwidth constraint.",
		xLabel: nodesAxis, yLabel: "global ring utilization (%)",
		curves: threeLevelByLine(utilMetric(0)),
	},
	{
		ID:    "fig11",
		Title: "Latency for hierarchies with 1-4 levels (32B lines)",
		Caption: "Paper Figure 11: each extra level shifts the latency curve right; the " +
			"benefit is largest for workloads with locality (panel b, R=0.2 vs panel a, R=1.0). T=2.",
		xLabel: nodesAxis, yLabel: latencyAxis,
		curves: func() (cs []curve) {
			byLevels := [][]topo.RingSpec{
				singleRings(4, 8, 12, 16, 24),
				{topo.MustRingSpec(2, 8), topo.MustRingSpec(3, 8), topo.MustRingSpec(4, 8),
					topo.MustRingSpec(5, 8), topo.MustRingSpec(6, 8)},
				{topo.MustRingSpec(2, 3, 8), topo.MustRingSpec(3, 3, 8),
					topo.MustRingSpec(4, 3, 8), topo.MustRingSpec(5, 3, 8)},
				{topo.MustRingSpec(2, 2, 2, 6), topo.MustRingSpec(2, 2, 2, 8),
					topo.MustRingSpec(2, 2, 3, 8), topo.MustRingSpec(3, 3, 3, 4)},
			}
			for _, R := range []float64{1.0, 0.2} {
				for i, sweep := range byLevels {
					cs = append(cs, curve{
						label:  fmt.Sprintf("%d-level R=%.1f", i+1, R),
						points: ringPoints(sweep, network.Config{LineBytes: 32}, mmrp(2, R)),
					})
				}
			}
			return cs
		},
	},
	{
		ID:    "fig12",
		Title: "Latency for 2D meshes (cl-sized, 4-flit and 1-flit buffers)",
		Caption: "Paper Figure 12: mesh latency grows moderately with size (aggregate and " +
			"bisection bandwidth scale); buffer size matters — cl-sized buffers give a 5-7x " +
			"latency increase from 4 to 121 processors, 4-flit 6-8x, 1-flit 9-12x. R=1.0 C=0.04 T=4.",
		xLabel: nodesAxis, yLabel: latencyAxis,
		curves: func() (cs []curve) {
			for _, buf := range []int{0, 4, 1} {
				for _, line := range lineSizes {
					cs = append(cs, curve{
						label:  fmt.Sprintf("%s buffers %dB", bufferLabel(buf), line),
						points: meshPoints(line, buf, mmrp(4, 1.0)),
					})
				}
			}
			return cs
		},
		tables: summaries(growthTable),
	},
	{
		ID:    "fig13",
		Title: "Network utilization for meshes with 4-flit buffers",
		Caption: "Paper Figure 13: mesh network utilization peaks early (9-16 nodes) and " +
			"decreases monotonically as average distance and blocking grow.",
		xLabel: nodesAxis, yLabel: "network utilization (%)",
		curves: func() (cs []curve) {
			for _, line := range lineSizes {
				cs = append(cs, curve{
					label:  fmt.Sprintf("%dB cache line", line),
					points: meshPoints(line, 4, mmrp(4, 1.0)),
					y:      meshUtilMetric,
				})
			}
			return cs
		},
	},
	{
		ID:    "fig14",
		Title: "Ring vs mesh latency, 4-flit mesh buffers, no locality",
		Caption: "Paper Figure 14: rings win below, meshes above a cross-over point that " +
			"grows with cache line size (paper: 16/25/27/36 nodes for 16/32/64/128B); the " +
			"gap widens with larger T. R=1.0 C=0.04.",
		xLabel: nodesAxis, yLabel: latencyAxis,
		curves: func() (cs []curve) {
			for _, line := range lineSizes {
				for _, T := range []int{1, 2, 4} {
					cs = append(cs, ringMeshPair(fmt.Sprintf("%dB T=%d", line, T), line, 4, false, mmrp(T, 1.0))...)
				}
			}
			return cs
		},
		tables: summaries(crossoverTable(" — paper: 16/25/27/36 for 16/32/64/128B at T=4")),
	},
	{
		ID:    "fig15",
		Title: "Ring vs mesh latency, cl-sized mesh buffers, 128B lines",
		Caption: "Paper Figure 15: with cache-line-sized mesh buffers the cross-over drops " +
			"to 16-30 nodes depending on T (worms never stall across more than one link).",
		xLabel: nodesAxis, yLabel: latencyAxis,
		curves: func() (cs []curve) {
			for _, T := range []int{1, 2, 4} {
				cs = append(cs, ringMeshPair(fmt.Sprintf("128B cl-buf T=%d", T), 128, 0, false, mmrp(T, 1.0))...)
			}
			return cs
		},
		tables: summaries(crossoverTable(" — paper: 16-30 depending on T")),
	},
	{
		ID:    "fig16",
		Title: "Ring vs mesh latency, 1-flit mesh buffers, 128B lines",
		Caption: "Paper Figure 16: with 1-flit mesh buffers rings outperform meshes for all " +
			"sizes up to 121 nodes (worms block across many links).",
		xLabel: nodesAxis, yLabel: latencyAxis,
		curves: func() (cs []curve) {
			for _, T := range []int{1, 2, 4} {
				cs = append(cs, ringMeshPair(fmt.Sprintf("128B 1-flit T=%d", T), 128, 1, false, mmrp(T, 1.0))...)
			}
			return cs
		},
		tables: summaries(crossoverTable(" — paper: above 121 for all T")),
	},
	{
		ID:    "fig17",
		Title: "Ring vs mesh latency under locality (R=0.1/0.2/0.3), 4-flit buffers",
		Caption: "Paper Figure 17: with moderate locality the paper reports rings ahead of " +
			"meshes by ~20-30% for 32-128B lines up to 121 processors (see EXPERIMENTS.md " +
			"for how our reproduction compares).",
		xLabel: nodesAxis, yLabel: latencyAxis,
		curves: func() (cs []curve) {
			for _, line := range lineSizes {
				for _, R := range []float64{0.1, 0.2, 0.3} {
					cs = append(cs, ringMeshPair(fmt.Sprintf("%dB R=%.1f", line, R), line, 4, false, mmrp(4, R))...)
				}
			}
			return cs
		},
		tables: summaries(
			crossoverTable(" — paper: rings ahead at all sizes for R<=0.3 (except 16B)"),
			ratioTable),
	},
	{
		ID:    "fig18",
		Title: "Ring vs mesh latency under locality, cl-sized mesh buffers, 128B lines",
		Caption: "Paper Figure 18: locality pushes the cross-over point out to 45+ " +
			"processors even with cache-line-sized mesh buffers.",
		xLabel: nodesAxis, yLabel: latencyAxis,
		curves: func() (cs []curve) {
			for _, R := range []float64{0.1, 0.2, 0.3} {
				cs = append(cs, ringMeshPair(fmt.Sprintf("128B cl-buf R=%.1f", R), 128, 0, false, mmrp(4, R))...)
			}
			return cs
		},
		tables: summaries(crossoverTable(" — paper: 45+ for R<=0.3")),
	},
	{
		ID:    "fig19",
		Title: "3-level ring latency with normal- vs double-speed global rings",
		Caption: "Paper Figure 19: doubling the global ring clock lets the hierarchy " +
			"sustain five (not three) second-level rings, R=1.0 C=0.04 T=4.",
		xLabel: nodesAxis, yLabel: latencyAxis,
		curves: threeLevelBySpeed(nil),
	},
	{
		ID:    "fig20",
		Title: "Global ring utilization, normal vs double speed",
		Caption: "Paper Figure 20: double-speed global ring utilization grows more slowly " +
			"and more linearly.",
		xLabel: nodesAxis, yLabel: "global ring utilization (%)",
		curves: threeLevelBySpeed(utilMetric(0)),
	},
	{
		ID:    "fig21",
		Title: "Mesh (4-flit) vs 3-level rings with double-speed global ring",
		Caption: "Paper Figure 21: with the global ring clocked 2x, 128B-line rings beat " +
			"meshes by 10-20% at up to ~120 processors even without locality; for 32/64B " +
			"the cross-over is unchanged since it falls below the 3-level threshold.",
		xLabel: nodesAxis, yLabel: latencyAxis,
		curves: func() (cs []curve) {
			for _, line := range doubleSpeedLines {
				cs = append(cs, ringMeshPair(fmt.Sprintf("%dB dbl-global", line), line, 4, true, mmrp(4, 1.0))...)
			}
			return cs
		},
		tables: summaries(crossoverTable(" — paper: rings ahead for 128B at all sizes; 32/64B unchanged")),
	},

	// Ablations are not paper artifacts; they check that the
	// reproduction's conclusions do not hinge on parameters the paper
	// leaves unspecified (see DESIGN.md "Fidelity decisions").
	{
		ID:    "ablate-memlat",
		Title: "Sensitivity to the memory service latency",
		Caption: "The paper does not state its memory service time; we default to 10 " +
			"cycles. This sweep shows the ring-vs-mesh gap at 72/64 processors as the " +
			"service time varies — the ordering, not the offsets, is what the " +
			"reproduction's conclusions rest on.",
		xLabel: "memory latency (cycles)", yLabel: "latency (cycles)",
		curves: func() []curve {
			latencies := []int{1, 5, 10, 20, 40}
			return []curve{
				{label: "ring 3:3:8 32B", points: knobPoints(latencies, func(ml int) core.SystemConfig {
					return core.SystemConfig{Network: "ring", Net: network.Config{Topology: "3:3:8", LineBytes: 32},
						Workload: mmrp(4, 1.0), MemLatency: ml}
				})},
				{label: "mesh 8x8 32B 4-flit", points: knobPoints(latencies, func(ml int) core.SystemConfig {
					return core.SystemConfig{Network: "mesh", Net: network.Config{Nodes: 64, LineBytes: 32, BufferFlits: 4},
						Workload: mmrp(4, 1.0), MemLatency: ml}
				})},
			}
		},
		tables: summaries(memLatRatioTable),
	},
	{
		ID:    "ablate-detgap",
		Title: "Deterministic vs geometric miss inter-arrival gaps",
		Caption: "The paper's generator fires a miss every 25 cycles on average (C=0.04). " +
			"We default to geometric gaps; this compares against exactly-25-cycle gaps.",
		xLabel: nodesAxis, yLabel: "latency (cycles)",
		curves: func() (cs []curve) {
			sweep := []topo.RingSpec{topo.MustRingSpec(8), topo.MustRingSpec(3, 8), topo.MustRingSpec(3, 3, 8)}
			for _, gaps := range []string{"geometric", "deterministic"} {
				wl := mmrp(4, 1.0)
				wl.Deterministic = gaps == "deterministic"
				cs = append(cs, curve{
					label:  gaps + " gaps",
					points: ringPoints(sweep, network.Config{LineBytes: 32}, wl),
				})
			}
			return cs
		},
	},
	{
		ID:    "ablate-iriq",
		Title: "Sensitivity to IRI up/down queue depth",
		Caption: "The paper sizes every IRI buffer at exactly one cache-line packet. " +
			"This sweep deepens the up/down queues to check how much of the hierarchy's " +
			"latency comes from inter-ring backpressure.",
		xLabel: "IRI queue depth (flits)", yLabel: "latency (cycles)",
		curves: func() (cs []curve) {
			for _, R := range []float64{1.0, 0.2} {
				cs = append(cs, curve{
					label: fmt.Sprintf("ring 3:3:8 32B, R=%.1f", R),
					points: knobPoints([]int{3, 6, 12, 24}, func(q int) core.SystemConfig {
						return core.SystemConfig{Network: "ring", Workload: mmrp(4, R),
							Net: network.Config{Topology: "3:3:8", LineBytes: 32, IRIQueueFlits: q}}
					}),
				})
			}
			return cs
		},
	},
	{
		ID:    "ablate-switching",
		Title: "Wormhole vs slotted ring switching",
		Caption: "The paper assumes wormhole rings while Hector/NUMAchine used slotted " +
			"rings (footnote 3); the authors' companion study (IEICE '96) compares the " +
			"techniques. Our packet-sized-slot model pays cl cycles per hop but never " +
			"blocks; wormhole pipelines flits but stalls under contention.",
		xLabel: nodesAxis, yLabel: "latency (cycles)",
		curves: func() (cs []curve) {
			sweep := []topo.RingSpec{
				topo.MustRingSpec(8), topo.MustRingSpec(2, 8), topo.MustRingSpec(3, 8),
				topo.MustRingSpec(2, 3, 8), topo.MustRingSpec(3, 3, 8),
			}
			for _, switching := range []string{"wormhole", "slotted"} {
				for _, line := range []int{16, 128} {
					net := network.Config{LineBytes: line, SlottedSwitching: switching == "slotted"}
					cs = append(cs, curve{
						label:  fmt.Sprintf("%s %dB", switching, line),
						points: ringPoints(sweep, net, mmrp(4, 1.0)),
					})
				}
			}
			return cs
		},
	},
}

// bufferLabel names a mesh buffer configuration.
func bufferLabel(buf int) string {
	if buf == 0 {
		return "cl-sized"
	}
	return fmt.Sprintf("%d-flit", buf)
}
