// Quickstart: simulate a 72-processor machine with both interconnects
// under the paper's baseline workload and compare the primary metric.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ringmesh"
)

func main() {
	wl := ringmesh.PaperWorkload() // R=1.0, C=0.04, T=4, 70% reads
	opt := ringmesh.DefaultRunOptions()

	// A hierarchical ring machine. The topology "3:3:8" is the paper's
	// Table 2 choice for 72 processors with 32-byte cache lines: one
	// global ring connecting 3 intermediate rings, each connecting 3
	// local rings of 8 processors.
	ringRes, err := ringmesh.Run(ringmesh.Config{
		Network:   "ring",
		Topology:  "3:3:8",
		LineBytes: 32,
		Workload:  wl,
		Seed:      1,
	}, opt)
	if err != nil {
		log.Fatal(err)
	}

	// The nearest square mesh (8x8 = 64 processors) with the paper's
	// 4-flit router buffers.
	meshRes, err := ringmesh.Run(ringmesh.Config{
		Network:     "mesh",
		Nodes:       64,
		LineBytes:   32,
		BufferFlits: 4,
		Workload:    wl,
		Seed:        1,
	}, opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("72-processor hierarchical ring (3:3:8), 32B lines:")
	fmt.Printf("  latency    %.1f cycles (95%% CI ±%.1f)\n", ringRes.LatencyCycles, ringRes.LatencyCI95)
	fmt.Printf("  global ring utilization %.0f%%\n", 100*ringRes.RingUtilization[0])
	fmt.Println()
	fmt.Println("64-processor mesh (8x8), 32B lines, 4-flit buffers:")
	fmt.Printf("  latency    %.1f cycles (95%% CI ±%.1f)\n", meshRes.LatencyCycles, meshRes.LatencyCI95)
	fmt.Printf("  network utilization %.0f%%\n", 100*meshRes.MeshUtilization)
	fmt.Println()
	switch {
	case ringRes.LatencyCycles < meshRes.LatencyCycles:
		fmt.Println("-> the ring wins at this size and workload")
	default:
		fmt.Println("-> the mesh wins at this size and workload (the paper's" +
			" cross-over for 32B lines is ~25 processors)")
	}
}
