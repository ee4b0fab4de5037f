// Command ringmesh runs a single interconnect simulation from flags
// and prints the measured metrics. The network is selected by its
// registry name, so the command needs no per-topology code: any model
// registered with the network package is runnable from here.
//
// Examples:
//
//	ringmesh -net ring -topo 3:3:8 -line 32
//	ringmesh -net ring -topo 5:3:4 -line 128 -double-global
//	ringmesh -net mesh -nodes 64 -line 64 -buf 4 -R 0.3 -T 2
//	ringmesh -net mesh -topo 8x8 -line 32
//	ringmesh -net ring -topo 2:4 -fault-plan 'stutter@2000+1000:node=3'
//	ringmesh -net mesh -topo 8x8 -timeout 30s
//	ringmesh -net ring -topo 3:3:8 -fidelity analytic
//
// -fidelity selects the answer tier: "simulate" (default) runs the
// exact engine; "analytic" evaluates the closed-form models in
// microseconds and prints the estimate with its recorded error bound.
//
// Exit codes: 0 success, 1 runtime failure, 2 configuration error,
// 3 stall (watchdog tripped; forensic summary goes to stderr).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ringmesh"
)

// Exit codes. Scripts sweeping parameter spaces branch on these to
// tell "this configuration is invalid" from "this configuration
// deadlocked" without parsing stderr.
const (
	exitRuntime = 1
	exitConfig  = 2
	exitStall   = 3
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values, so the golden
// test can drive the whole command in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ringmesh", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		netKind = fs.String("net", "ring",
			"network type: "+strings.Join(ringmesh.Topologies(), " or "))
		topoStr = fs.String("topo", "", "geometry in the model's notation, e.g. 2:3:4 or 8x8 (default: derived from -nodes)")
		nodes   = fs.Int("nodes", 16, "number of processors, used when -topo is empty (mesh: must be a square; ring: picks the optimal hierarchy)")
		line    = fs.Int("line", 32, "cache line size in bytes (16/32/64/128)")
		buf     = fs.Int("buf", 4, "mesh input buffer depth in flits (0 = cache-line sized)")
		dbl     = fs.Bool("double-global", false, "clock the global ring at 2x (ring only)")
		slotted = fs.Bool("slotted", false, "slotted instead of wormhole ring switching (ring only)")
		rFlag   = fs.Float64("R", 1.0, "access region fraction (locality)")
		cFlag   = fs.Float64("C", 0.04, "cache miss rate per cycle")
		tFlag   = fs.Int("T", 4, "outstanding transactions before blocking")
		readP   = fs.Float64("read-prob", 0.7, "probability a miss is a read")
		memLat  = fs.Int("mem", 0, "memory service latency in cycles (0 = default)")
		seed    = fs.Uint64("seed", 1, "random seed")
		warmup  = fs.Int64("warmup", 4000, "warmup cycles (discarded batch)")
		batch   = fs.Int64("batch", 4000, "cycles per batch")
		batches = fs.Int("batches", 8, "retained batches")
		tracePk = fs.Uint64("trace-packet", 0, "print the lifecycle of this packet id (0 = off)")

		faultPlan = fs.String("fault-plan", "", `fault plan DSL: ";"-separated events "kind@start+dur:node=N[,port=P][,factor=F]" (kinds stutter/slowdown/degrade), or "rand:events=E,seed=S,horizon=H"`)
		timeout   = fs.Duration("timeout", 0, "wall-clock bound for the run, e.g. 30s (0 = none)")
		noVC      = fs.Bool("unsafe-no-vc", false, "disable the ring's deadlock-avoidance virtual channels (forensics demos; wormhole ring only)")
		workersF  = fs.Int("workers", 1, "parallel tick workers (meshes only, rings run serial; 1 = serial engine; results are bit-identical at any count)")
		fidelityF = fs.String("fidelity", "simulate", `answer tier: "simulate" (exact engine) or "analytic" (closed-form estimate with its recorded error bound)`)

		verbose    = fs.Bool("v", false, "collect the full latency distribution and print a p50/p95/p99 summary line")
		metricsOn  = fs.Bool("metrics", false, "collect link/queue/stall instruments and print a snapshot after the run")
		metricsInt = fs.Int64("metrics-interval", 100, "metrics sampling period in PM cycles (with -metrics)")
		metricsOut = fs.String("metrics-out", "", "write the sampled metrics time series to this file; .jsonl suffix selects JSON Lines, anything else CSV (with -metrics)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return exitConfig
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "ringmesh:", err)
		return code
	}

	cfg := ringmesh.Config{
		Network:           *netKind,
		Topology:          *topoStr,
		Nodes:             *nodes,
		LineBytes:         *line,
		BufferFlits:       *buf,
		DoubleSpeedGlobal: *dbl,
		SlottedSwitching:  *slotted,
		UnsafeNoVC:        *noVC,
		Workload:          ringmesh.Workload{R: *rFlag, C: *cFlag, T: *tFlag, ReadProb: *readP},
		MemLatencyCycles:  *memLat,
		Seed:              *seed,
		Histogram:         *verbose,
		Workers:           *workersF,
		Trace:             *tracePk != 0,
		TraceOnlyPacket:   *tracePk,
		Metrics:           *metricsOn || *metricsOut != "",
		FaultPlan:         *faultPlan,
		Fidelity:          *fidelityF,

		MetricsIntervalCycles: *metricsInt,
	}
	if *topoStr != "" {
		// The geometry is fully named; don't cross-check the -nodes
		// default against it.
		cfg.Nodes = 0
	}
	opt := ringmesh.RunOptions{WarmupCycles: *warmup, BatchCycles: *batch, Batches: *batches,
		Timeout: *timeout}

	// The two rules the flag layer owns (the library reads Workers 0
	// and MetricsIntervalCycles 0 as defaults; a flag spelling them is
	// a typo); every other range is the library's to check, so a bad
	// value fails before anything is built, with one wording.
	switch {
	case *workersF < 1:
		return fail(exitConfig, fmt.Errorf("-workers %d < 1", *workersF))
	case *metricsInt < 1:
		return fail(exitConfig, fmt.Errorf("-metrics-interval %d < 1", *metricsInt))
	}
	if err := opt.Validate(); err != nil {
		return fail(exitConfig, err)
	}

	if *fidelityF == "analytic" {
		// The estimate never builds the engine, so the instruments
		// that ride on it have nothing to observe.
		if cfg.Trace || cfg.Metrics || *verbose {
			return fail(exitConfig, fmt.Errorf("-fidelity analytic is engine-free; -trace-packet, -metrics, -metrics-out and -v need the simulator"))
		}
		// Refusals (features outside the validated envelope) are
		// configuration errors: rerun without -fidelity for the exact
		// answer.
		if err := printEstimate(stdout, cfg, opt); err != nil {
			return fail(exitConfig, err)
		}
		return 0
	}

	sys, err := ringmesh.NewSystem(cfg)
	if err != nil {
		return fail(exitConfig, err)
	}
	res, err := sys.Run(opt)
	if err != nil {
		return fail(exitRuntime, err)
	}
	wl := cfg.Workload
	fmt.Fprintf(stdout, "system:       %s (%d PMs)\n", sys.Describe(), sys.PMs())
	fmt.Fprintf(stdout, "workload:     R=%.2f C=%.3f T=%d read-prob=%.2f\n", wl.R, wl.C, wl.T, wl.ReadProb)
	fmt.Fprintf(stdout, "latency:      %.1f cycles (95%% CI ±%.1f, %d observations)\n",
		res.LatencyCycles, res.LatencyCI95, res.Observations)
	fmt.Fprintf(stdout, "throughput:   %.3f transactions/cycle (%d issued, %d completed, %d local)\n",
		res.Throughput, res.Issued, res.Completed, res.Local)
	if *verbose {
		fmt.Fprintf(stdout, "latency dist: p50=%.0f p95=%.0f p99=%.0f max=%.0f cycles\n",
			res.LatencyP50, res.LatencyP95, res.LatencyP99, res.LatencyMax)
	}
	if res.RingUtilization != nil {
		fmt.Fprintf(stdout, "ring util:    ")
		for lvl, u := range res.RingUtilization {
			name := fmt.Sprintf("L%d", lvl)
			if lvl == 0 {
				name = "global"
			}
			if lvl == len(res.RingUtilization)-1 && lvl > 0 {
				name = "local"
			}
			fmt.Fprintf(stdout, "%s=%.1f%% ", name, 100*u)
		}
		fmt.Fprintln(stdout)
	} else {
		fmt.Fprintf(stdout, "mesh util:    %.1f%%\n", 100*res.MeshUtilization)
	}
	if res.Saturated {
		fmt.Fprintln(stdout, "note:         network past saturation (processors mostly blocked)")
	}
	if cfg.Trace {
		fmt.Fprintf(stdout, "\ntrace of packet #%d:\n", *tracePk)
		if err := sys.WriteTrace(stdout); err != nil {
			return fail(exitRuntime, err)
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return fail(exitRuntime, err)
		}
		if strings.HasSuffix(*metricsOut, ".jsonl") {
			err = sys.WriteMetricsJSONL(f)
		} else {
			err = sys.WriteMetricsCSV(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(exitRuntime, err)
		}
		fmt.Fprintf(stdout, "\nmetrics:      %d samples x %d series -> %s\n",
			len(sys.MetricSamples()), len(sys.MetricNames()), *metricsOut)
	}
	if *metricsOn {
		fmt.Fprintln(stdout, "\nmetrics snapshot (measured interval):")
		if err := sys.WriteMetricsSnapshot(stdout); err != nil {
			return fail(exitRuntime, err)
		}
	}
	if res.Stalled {
		fmt.Fprintln(stdout, "note:         watchdog tripped (no forward progress)")
		summary := "no stall report"
		if res.Stall != nil {
			summary = res.Stall.Summary
		}
		fmt.Fprintln(stderr, "ringmesh:", summary)
		return exitStall
	}
	return 0
}

// printEstimate answers the configuration from the closed-form models
// instead of the engine and prints the estimate with its recorded
// validation bound.
func printEstimate(stdout io.Writer, cfg ringmesh.Config, opt ringmesh.RunOptions) error {
	res, err := ringmesh.Run(cfg, opt)
	if err != nil {
		return err
	}
	// The header the engine path gets from sys.Describe().
	topology, pms, err := ringmesh.CanonicalTopology(cfg)
	if err != nil {
		return err
	}
	wl := cfg.Workload
	fmt.Fprintf(stdout, "system:       %s %s (%d PMs), %s estimate\n", cfg.Network, topology, pms, res.Fidelity)
	fmt.Fprintf(stdout, "workload:     R=%.2f C=%.3f T=%d read-prob=%.2f\n", wl.R, wl.C, wl.T, wl.ReadProb)
	fmt.Fprintf(stdout, "latency:      %.1f cycles (closed-form, zero-load)\n", res.LatencyCycles)
	fmt.Fprintf(stdout, "throughput:   %.3f transactions/cycle (estimated)\n", res.Throughput)
	if b := res.ErrorBound; b != nil {
		fmt.Fprintf(stdout, "error bound:  max rel err %.1f%% (%s)\n", 100*b.MaxRelErr, b.Basis)
	}
	if res.RingUtilization != nil {
		fmt.Fprintf(stdout, "ring util:    global=%.1f%% (bisection bound)\n", 100*res.RingUtilization[0])
	} else {
		fmt.Fprintf(stdout, "mesh util:    %.1f%% (bisection bound)\n", 100*res.MeshUtilization)
	}
	if res.Saturated {
		fmt.Fprintln(stdout, "note:         estimated past saturation (offered load exceeds the bisection bound)")
	}
	return nil
}
