// Command topofind searches for the best hierarchical ring topology
// for a given processor count and cache line size — the procedure
// behind the paper's Table 2 — at three fidelities:
//
//	(default)   analytic: score every admissible hierarchy with the
//	            closed-form estimator, ≈ 0.1 ms a candidate
//	-simulate   exact: simulate every admissible hierarchy, fanned out
//	            over -workers parallel workers
//	-pareto     multi-fidelity: triage every hierarchy analytically,
//	            then simulate only the latency/cost Pareto frontier
//	            (cost = inter-ring interfaces, the paper's hardware
//	            currency)
//
// Simulation progress checkpoints to -state after every completed
// run; -resume picks a search back up, skipping finished topologies.
//
// Examples:
//
//	topofind -nodes 72 -line 32
//	topofind -nodes 72 -line 32 -simulate -workers 8
//	topofind -nodes 108 -line 128 -pareto -state table2.json
//	topofind -nodes 108 -line 128 -pareto -state table2.json -resume
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"ringmesh"
	"ringmesh/internal/network"
	"ringmesh/internal/pool"
	"ringmesh/internal/topo"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 24, "number of processors")
		line      = flag.Int("line", 32, "cache line size in bytes")
		maxLevels = flag.Int("max-levels", 4, "maximum hierarchy depth")
		maxBranch = flag.Int("max-branch", 3, "maximum internal branching")
		simulate  = flag.Bool("simulate", false, "score every candidate by exact simulation")
		pareto    = flag.Bool("pareto", false, "triage analytically, simulate only the latency/cost frontier")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		workers   = flag.Int("workers", runtime.NumCPU(), "parallel simulation workers")
		statePath = flag.String("state", "", "checkpoint completed simulations to this file")
		resume    = flag.Bool("resume", false, "resume from -state, skipping completed topologies")
	)
	flag.Parse()
	if *simulate && *pareto {
		fail(2, fmt.Errorf("-simulate and -pareto are different search modes; pick one"))
	}
	if *resume && *statePath == "" {
		fail(2, fmt.Errorf("-resume needs -state"))
	}

	ringCap, ok := network.SingleRingCapacity[*line]
	if !ok {
		fail(2, fmt.Errorf("unsupported line size %dB (use 16/32/64/128)", *line))
	}
	specs := topo.EnumerateRingSpecs(*nodes, *maxLevels, *maxBranch, ringCap)
	if len(specs) == 0 {
		fail(1, fmt.Errorf("no admissible hierarchy for %d PMs at %dB lines", *nodes, *line))
	}

	// Analytic triage is cheap enough to run unconditionally: every
	// mode prints the estimate column, and the pareto mode prunes on
	// it.
	cands := make([]candidate, len(specs))
	for i, s := range specs {
		cands[i] = candidate{Spec: s, Hops: s.AverageRingHops(), IRIs: iriCount(s)}
		acfg := candidateConfig(s, *line, *seed)
		acfg.Fidelity = "analytic"
		res, err := ringmesh.Estimate(acfg, ringmesh.DefaultRunOptions())
		if err != nil {
			fail(1, fmt.Errorf("analytic %s: %w", s, err))
		}
		cands[i].Analytic = res.LatencyCycles
	}

	search := search{
		header: stateHeader{Nodes: *nodes, Line: *line, Seed: *seed,
			MaxLevels: *maxLevels, MaxBranch: *maxBranch},
		statePath: *statePath,
		done:      map[string]simScore{},
	}
	if *resume {
		done, err := loadState(*statePath, search.header)
		if err != nil {
			fail(1, fmt.Errorf("-resume: %w", err))
		}
		search.done = done
	}

	var frontier int
	switch {
	case *pareto:
		frontier = markFrontier(cands)
		var sim []int
		for i := range cands {
			if cands[i].Frontier {
				sim = append(sim, i)
			}
		}
		if err := search.simulate(cands, sim, *line, *seed, *workers); err != nil {
			fail(1, err)
		}
	case *simulate:
		all := make([]int, len(cands))
		for i := range all {
			all[i] = i
		}
		if err := search.simulate(cands, all, *line, *seed, *workers); err != nil {
			fail(1, err)
		}
	}

	sortCandidates(cands)
	printTable(cands, *nodes, *line, ringCap, *maxBranch, *pareto, frontier)
	if want, ok := network.PaperTable2[[2]int{*nodes, *line}]; ok {
		fmt.Printf("\npaper Table 2 entry: %s\n", want)
	}
}

// candidate is one admissible hierarchy and everything the search
// learns about it, across fidelities.
type candidate struct {
	Spec     topo.RingSpec
	Hops     float64
	IRIs     int // inter-ring interfaces: the hardware cost axis
	Analytic float64
	Frontier bool
	Sim      *simScore
}

// simScore is one exact simulation's verdict, also the unit persisted
// in the checkpoint file.
type simScore struct {
	Latency   float64 `json:"latency"`
	Saturated bool    `json:"saturated"`
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

// iriCount is the number of inter-ring interfaces a hierarchy needs:
// one per non-global ring (each lower-level ring couples to its
// parent through one IRI). A flat ring costs zero; cost grows with
// both depth and branching, making it the natural second axis against
// latency.
func iriCount(s topo.RingSpec) int {
	total, rings := 0, 1
	for i := 0; i < len(s.Levels)-1; i++ {
		rings *= s.Levels[i]
		total += rings
	}
	return total
}

// markFrontier flags the candidates on the Pareto frontier of
// (analytic latency, IRI count) — both minimized — and returns how
// many. A candidate is dominated when another is no worse on both
// axes and strictly better on one; only the frontier is worth exact
// simulation time.
func markFrontier(cands []candidate) int {
	n := 0
	for i := range cands {
		dominated := false
		for j := range cands {
			if i == j {
				continue
			}
			betterEq := cands[j].Analytic <= cands[i].Analytic && cands[j].IRIs <= cands[i].IRIs
			strictly := cands[j].Analytic < cands[i].Analytic || cands[j].IRIs < cands[i].IRIs
			if betterEq && strictly {
				dominated = true
				break
			}
		}
		if !dominated {
			cands[i].Frontier = true
			n++
		}
	}
	return n
}

// stateHeader identifies which search a checkpoint belongs to; every
// field must match on resume, or the cached latencies would describe
// a different experiment.
type stateHeader struct {
	Nodes     int    `json:"nodes"`
	Line      int    `json:"line"`
	Seed      uint64 `json:"seed"`
	MaxLevels int    `json:"max_levels"`
	MaxBranch int    `json:"max_branch"`
}

// stateFile is the on-disk checkpoint: the search identity plus every
// completed simulation, keyed by topology notation.
type stateFile struct {
	stateHeader
	Simulated map[string]simScore `json:"simulated"`
}

// loadState reads a checkpoint and verifies it belongs to this
// search.
func loadState(path string, want stateHeader) (map[string]simScore, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var st stateFile
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if st.stateHeader != want {
		return nil, fmt.Errorf("%s holds a different search (%+v); want %+v", path, st.stateHeader, want)
	}
	if st.Simulated == nil {
		st.Simulated = map[string]simScore{}
	}
	return st.Simulated, nil
}

// saveState writes the checkpoint atomically (temp file + rename), so
// a crash mid-write can never leave a torn file for -resume to choke
// on.
func saveState(path string, st stateFile) error {
	raw, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".topofind-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(raw, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// search runs the exact-simulation stage: a worker pool over the
// selected candidate indices, checkpointing after every completed
// run. Results land in indexed slots, so the output order never
// depends on worker scheduling.
type search struct {
	mu        sync.Mutex
	header    stateHeader
	statePath string
	done      map[string]simScore
}

func (se *search) simulate(cands []candidate, indices []int, line int, seed uint64, workers int) error {
	errs := pool.ForEach(context.Background(), workers, len(indices), func(k int) error {
		c := &cands[indices[k]]
		name := c.Spec.String()
		se.mu.Lock()
		sc, ok := se.done[name]
		se.mu.Unlock()
		if ok {
			c.Sim = &sc
			return nil
		}
		res, err := ringmesh.Run(candidateConfig(c.Spec, line, seed), ringmesh.DefaultRunOptions())
		if err != nil {
			return fmt.Errorf("simulate %s: %w", name, err)
		}
		sc = simScore{Latency: res.LatencyCycles, Saturated: res.Saturated}
		c.Sim = &sc
		se.mu.Lock()
		defer se.mu.Unlock()
		se.done[name] = sc
		if se.statePath == "" {
			return nil
		}
		return saveState(se.statePath, stateFile{stateHeader: se.header, Simulated: cloneScores(se.done)})
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func cloneScores(m map[string]simScore) map[string]simScore {
	cp := make(map[string]simScore, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}

// sortCandidates orders the report: simulated candidates first by
// exact latency, then unsimulated by analytic latency, ties broken by
// IRI cost and notation so the listing is deterministic at any worker
// count.
func sortCandidates(cands []candidate) {
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if (a.Sim != nil) != (b.Sim != nil) {
			return a.Sim != nil
		}
		if a.Sim != nil && a.Sim.Latency != b.Sim.Latency {
			return a.Sim.Latency < b.Sim.Latency
		}
		if a.Analytic != b.Analytic {
			return a.Analytic < b.Analytic
		}
		if a.IRIs != b.IRIs {
			return a.IRIs < b.IRIs
		}
		return a.Spec.String() < b.Spec.String()
	})
}

func printTable(cands []candidate, nodes, line, ringCap, maxBranch int, pareto bool, frontier int) {
	fmt.Printf("candidate hierarchies for %d processors, %dB cache lines "+
		"(leaf <= %d, branch <= %d):\n", nodes, line, ringCap, maxBranch)
	if pareto {
		fmt.Printf("analytic triage kept %d of %d on the latency/cost frontier\n", frontier, len(cands))
	}
	fmt.Println()
	fmt.Printf("   %-12s %-7s %-6s %-10s %-10s %-10s\n",
		"topology", "levels", "iris", "avg hops", "analytic", "simulated")
	for i, c := range cands {
		marker := "  "
		if i == 0 {
			marker = "* "
		}
		simCol := "-"
		if c.Sim != nil {
			simCol = fmt.Sprintf("%.1f", c.Sim.Latency)
			if c.Sim.Saturated {
				simCol += " (sat)"
			}
		} else if pareto {
			simCol = "- (dominated)"
		}
		fmt.Printf(" %s %-12s %-7d %-6d %-10.2f %-10.1f %s\n",
			marker, c.Spec, c.Spec.NumLevels(), c.IRIs, c.Hops, c.Analytic, simCol)
	}
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "topofind:", err)
	os.Exit(code)
}
