// Locality study: how memory access locality (the M-MRP R parameter)
// changes the ring-vs-mesh comparison — the question behind the
// paper's Figure 17. Section 1 of the paper motivates hierarchical
// rings precisely because "their topology allows natural exploitation
// of the spatial locality of application memory access patterns".
//
// Run with:
//
//	go run ./examples/locality
package main

import (
	"fmt"
	"log"

	"ringmesh"
)

func main() {
	const lineBytes = 64
	opt := ringmesh.DefaultRunOptions()

	fmt.Printf("54-processor ring (3:3:6) vs 49-processor mesh (7x7), %dB lines\n\n", lineBytes)
	fmt.Printf("%-6s  %-28s  %-28s\n", "R", "ring latency (cycles)", "mesh latency (cycles)")

	for _, r := range []float64{0.1, 0.2, 0.3, 0.5, 1.0} {
		wl := ringmesh.PaperWorkload()
		wl.R = r

		ringRes, err := ringmesh.Run(ringmesh.Config{
			Network:   "ring",
			Topology:  "3:3:6", // paper Table 2 for 54 PMs at 64B
			LineBytes: lineBytes,
			Workload:  wl,
			Seed:      1,
		}, opt)
		if err != nil {
			log.Fatal(err)
		}
		meshRes, err := ringmesh.Run(ringmesh.Config{
			Network:     "mesh",
			Nodes:       49,
			LineBytes:   lineBytes,
			BufferFlits: 4,
			Workload:    wl,
			Seed:        1,
		}, opt)
		if err != nil {
			log.Fatal(err)
		}
		winner := "mesh"
		if ringRes.LatencyCycles < meshRes.LatencyCycles {
			winner = "ring"
		}
		fmt.Printf("%-6.1f  %7.1f ±%-5.1f (global %2.0f%%)   %7.1f ±%-5.1f (links %2.0f%%)   -> %s\n",
			r,
			ringRes.LatencyCycles, ringRes.LatencyCI95, 100*ringRes.RingUtilization[0],
			meshRes.LatencyCycles, meshRes.LatencyCI95, 100*meshRes.MeshUtilization,
			winner)
	}

	fmt.Println("\nWith strong locality (small R) traffic stays on the local rings and")
	fmt.Println("the ring hierarchy's constant bisection bandwidth stops mattering;")
	fmt.Println("with R=1.0 the global ring saturates and the mesh pulls ahead.")
}
