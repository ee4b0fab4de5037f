// Double-speed global ring: the paper's Section 6 modification.
// Because the global ring is a small part of the machine, it can be
// built from faster (or wider) technology; clocking it at twice the
// PM rate doubles the hierarchy's bisection bandwidth and lets the
// third-level ring sustain five instead of three second-level rings.
//
// Run with:
//
//	go run ./examples/doublespeed
package main

import (
	"fmt"
	"log"

	"ringmesh"
)

func main() {
	const lineBytes = 128
	opt := ringmesh.DefaultRunOptions()

	// 3-level hierarchies with j second-level rings, each maxed out at
	// 3 local rings of 4 PMs (the 128B-line single-ring capacity).
	fmt.Printf("3-level hierarchies, %dB lines, R=1.0 C=0.04 T=4\n\n", lineBytes)
	fmt.Printf("%-10s %-6s  %-26s  %-26s\n", "topology", "PMs", "normal-speed global", "double-speed global")

	for j := 2; j <= 8; j++ {
		topoStr := fmt.Sprintf("%d:3:4", j)
		pms := j * 12
		if pms > 121 {
			break
		}
		var lat [2]float64
		var util [2]float64
		var sat [2]bool
		for i, dbl := range []bool{false, true} {
			res, err := ringmesh.Run(ringmesh.Config{
				Network:           "ring",
				Topology:          topoStr,
				LineBytes:         lineBytes,
				DoubleSpeedGlobal: dbl,
				Workload:          ringmesh.PaperWorkload(),
				Seed:              1,
			}, opt)
			if err != nil {
				log.Fatal(err)
			}
			lat[i] = res.LatencyCycles
			util[i] = res.RingUtilization[0]
			sat[i] = res.Saturated
		}
		note := func(i int) string {
			if sat[i] {
				return " sat."
			}
			return ""
		}
		fmt.Printf("%-10s %-6d  %8.1f cyc, glob %3.0f%%%-5s  %8.1f cyc, glob %3.0f%%%-5s  (%.0f%% faster)\n",
			topoStr, pms,
			lat[0], 100*util[0], note(0),
			lat[1], 100*util[1], note(1),
			100*(1-lat[1]/lat[0]))
	}

	fmt.Println("\nThe double-speed global ring defers the bisection-bandwidth wall:")
	fmt.Println("utilization of the global ring grows more slowly, so more second-level")
	fmt.Println("rings can be attached before latency explodes (paper Figures 19-20).")
}
