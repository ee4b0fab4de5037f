// Topology exploration: for a machine size, enumerate every
// admissible ring hierarchy and rank it at two fidelities — the
// simulation procedure behind the paper's Table 2 ("the topology of a
// hierarchical ring system greatly affects its performance").
//
// Every candidate is first scored by the analytic tier (microseconds
// per topology, labeled with its recorded error bound); only the top few estimates are then measured
// exactly, showing estimate and simulation side by side.
//
// Run with:
//
//	go run ./examples/topology
package main

import (
	"fmt"
	"log"
	"sort"

	"ringmesh"
)

func main() {
	const (
		nodes     = 36
		lineBytes = 64
		exactTop  = 3 // simulate only the best few estimates
	)
	wl := ringmesh.PaperWorkload()
	opt := ringmesh.DefaultRunOptions()

	candidates := ringmesh.EnumerateRingTopologies(
		nodes,
		4, // at most four levels
		3, // at most three children per internal ring (bisection limit)
		ringmesh.SingleRingCapacity(lineBytes),
	)
	if len(candidates) == 0 {
		log.Fatalf("no admissible topology for %d nodes", nodes)
	}

	config := func(topo, fidelity string) ringmesh.Config {
		return ringmesh.Config{
			Network:   "ring",
			Topology:  topo,
			LineBytes: lineBytes,
			Workload:  wl,
			Seed:      1,
			Fidelity:  fidelity,
		}
	}

	// Fast pass: one closed-form estimate per candidate.
	type scored struct {
		topo  string
		est   ringmesh.Result
		exact *ringmesh.Result
	}
	results := make([]scored, 0, len(candidates))
	for _, c := range candidates {
		res, err := ringmesh.Estimate(config(c, "analytic"), opt)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, scored{topo: c, est: res})
	}
	sort.Slice(results, func(i, j int) bool {
		return results[i].est.LatencyCycles < results[j].est.LatencyCycles
	})

	// Exact pass: simulate only the frontrunners.
	for i := 0; i < exactTop && i < len(results); i++ {
		res, err := ringmesh.Run(config(results[i].topo, ""), opt)
		if err != nil {
			log.Fatal(err)
		}
		results[i].exact = &res
	}

	fmt.Printf("candidate hierarchies for %d processors, %dB cache lines,\n", nodes, lineBytes)
	fmt.Printf("under R=%.1f C=%.2f T=%d (best analytic estimate first):\n\n", wl.R, wl.C, wl.T)
	fmt.Printf("   %-10s %-18s %s\n", "topology", "analytic estimate", "exact simulation")
	for i, r := range results {
		marker := "   "
		if i == 0 {
			marker = " * "
		}
		exact := "-"
		if r.exact != nil {
			exact = fmt.Sprintf("%.1f cycles ±%.1f", r.exact.LatencyCycles, r.exact.LatencyCI95)
		}
		fmt.Printf("%s%-10s %-18s %s\n", marker, r.topo,
			fmt.Sprintf("%.1f cycles", r.est.LatencyCycles), exact)
	}
	if b := results[0].est.ErrorBound; b != nil {
		fmt.Printf("\nanalytic estimates validated to max rel err %.1f%% at low load\n(%s).\n",
			100*b.MaxRelErr, b.Basis)
	}

	analytic, err := ringmesh.OptimalRingTopology(nodes, lineBytes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nanalytic choice (depth, then average hop distance): %s\n", analytic)
	fmt.Println("paper Table 2 lists 2:3:6 for this configuration.")
}
