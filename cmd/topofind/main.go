// Command topofind lists every admissible hierarchical ring topology
// for a given processor count and cache line size — the candidates
// behind the paper's Table 2 — and stars one:
//
//	(default)   the Table 2 pick: fewest levels, then fewest average
//	            hops (network.RankedRingSpecs, the rule the table2
//	            experiment and nodes:N resolve use); every candidate
//	            also shows its closed-form analytic latency
//	-simulate   simulate every candidate, fanned out over -workers
//	            parallel workers, and star the lowest simulated
//	            latency (ties keep the Table 2 order); the output is
//	            byte-identical at any worker count
//
// Exit codes: 0 success, 1 no admissible hierarchy or a failed run,
// 2 bad flags.
//
// Examples:
//
//	topofind -nodes 72 -line 32
//	topofind -nodes 72 -line 32 -simulate -workers 8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"ringmesh"
	"ringmesh/internal/network"
	"ringmesh/internal/pool"
	"ringmesh/internal/topo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values, so tests can
// drive the whole command in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topofind", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes     = fs.Int("nodes", 24, "number of processors")
		line      = fs.Int("line", 32, "cache line size in bytes (16/32/64/128)")
		maxLevels = fs.Int("max-levels", 4, "maximum hierarchy depth")
		maxBranch = fs.Int("max-branch", 3, "maximum internal branching")
		simulate  = fs.Bool("simulate", false, "simulate every candidate and star the lowest simulated latency")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		workers   = fs.Int("workers", runtime.NumCPU(), "parallel simulation workers")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "topofind:", err)
		return code
	}

	ringCap, ok := network.SingleRingCapacity[*line]
	if !ok {
		return fail(2, fmt.Errorf("unsupported line size %dB (use 16/32/64/128)", *line))
	}
	specs, err := network.RankedRingSpecs(*nodes, *line, *maxLevels, *maxBranch)
	if err != nil {
		return fail(1, err)
	}

	cands := make([]candidate, len(specs))
	for i, s := range specs {
		cands[i] = candidate{Spec: s}
		acfg := candidateConfig(s, *line, *seed)
		acfg.Fidelity = "analytic"
		res, err := ringmesh.Estimate(acfg, ringmesh.DefaultRunOptions())
		if err != nil {
			return fail(1, fmt.Errorf("analytic %s: %w", s, err))
		}
		cands[i].Analytic = res.LatencyCycles
	}
	if *simulate {
		if err := simulateAll(cands, *line, *seed, *workers); err != nil {
			return fail(1, err)
		}
		sortBySimulated(cands)
	}

	printTable(stdout, cands, *nodes, *line, ringCap, *maxBranch)
	if want, ok := network.PaperTable2[[2]int{*nodes, *line}]; ok {
		fmt.Fprintf(stdout, "\npaper Table 2 entry: %s\n", want)
	}
	return 0
}

// candidate is one admissible hierarchy with its analytic latency and,
// under -simulate, its simulated one.
type candidate struct {
	Spec      topo.RingSpec
	Analytic  float64
	Simulated float64
	Saturated bool
}

func candidateConfig(s topo.RingSpec, line int, seed uint64) ringmesh.Config {
	return ringmesh.Config{
		Network:   "ring",
		Topology:  s.String(),
		LineBytes: line,
		Workload:  ringmesh.PaperWorkload(),
		Seed:      seed,
	}
}

// simulateAll runs every candidate over a worker pool. Each result
// lands in its candidate's own slot, so nothing depends on worker
// scheduling.
func simulateAll(cands []candidate, line int, seed uint64, workers int) error {
	errs := pool.ForEach(context.Background(), workers, len(cands), func(i int) error {
		c := &cands[i]
		res, err := ringmesh.Run(candidateConfig(c.Spec, line, seed), ringmesh.DefaultRunOptions())
		if err != nil {
			return fmt.Errorf("simulate %s: %w", c.Spec, err)
		}
		c.Simulated, c.Saturated = res.LatencyCycles, res.Saturated
		return nil
	})
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// sortBySimulated orders candidates by simulated latency, keeping the
// Table 2 order among equal latencies.
func sortBySimulated(cands []candidate) {
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Simulated < cands[j].Simulated })
}

func printTable(w io.Writer, cands []candidate, nodes, line, ringCap, maxBranch int) {
	fmt.Fprintf(w, "candidate hierarchies for %d processors, %dB cache lines "+
		"(leaf <= %d, branch <= %d):\n\n", nodes, line, ringCap, maxBranch)
	fmt.Fprintf(w, "   %-12s %-7s %-10s %-10s %-10s\n",
		"topology", "levels", "avg hops", "analytic", "simulated")
	for i, c := range cands {
		marker := "  "
		if i == 0 {
			marker = "* "
		}
		simCol := "-"
		if c.Simulated > 0 {
			simCol = fmt.Sprintf("%.1f", c.Simulated)
			if c.Saturated {
				simCol += " (sat)"
			}
		}
		fmt.Fprintf(w, " %s %-12s %-7d %-10.2f %-10.1f %s\n",
			marker, c.Spec, c.Spec.NumLevels(), c.Spec.AverageRingHops(), c.Analytic, simCol)
	}
}
