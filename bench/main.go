// Command bench is this repository's benchmark: six named workloads
// measured end to end with tracing off, a traced pass that attributes
// each workload's time to the layers it crosses, and per-layer probes.
// Every layer is measured from outside, by timing calls into its public
// functions. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinFlag {
		spin()
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// runSeconds is the nominal length of a measured phase: BENCHMARK.json's
// run_seconds and the default of -seconds.
const runSeconds = 16

// options are the command's flags.
type options struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       int
	all         bool
	layers      bool
	record      string
	compare     bool
	repeat      int
	smoke       bool
	update      bool
	describe    bool
	expectedDir string
	traceDir    string
	resultsDir  string
}

func run(args []string, out io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload and end with the result line (the acceptance driver's mode)")
	fs.Uint64Var(&o.seed, "seed", pinnedSeed, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "length of each measured phase")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: traced pass (with -workload, plus the per-layer probes)")
	fs.BoolVar(&o.all, "all", false, "run every workload end to end, each in its own process")
	fs.BoolVar(&o.layers, "layers", false, "run every per-layer probe, heavy ones included")
	fs.StringVar(&o.record, "record", "", "run -all, -layers and the traced pass and write the ledger row to this file")
	fs.BoolVar(&o.compare, "compare", false, "compare two ledger files: -compare a.json b.json")
	fs.IntVar(&o.repeat, "repeat", 1, "with -all or -record: run this many full sets (set i at seed+i) and report each metric's spread")
	fs.BoolVar(&o.smoke, "smoke", false, "shrink every run to a fiftieth (a functional check, not a measurement)")
	fs.BoolVar(&o.update, "update-expected", false, "with -all: rewrite the pinned seed-42 outputs under -expected-dir instead of checking them")
	fs.BoolVar(&o.describe, "describe", false, "print BENCHMARK.json as generated from the benchmark's own tables")
	fs.StringVar(&o.expectedDir, "expected-dir", "bench/expected", "where -update-expected writes")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where the traced pass writes one Chrome trace file per workload")
	fs.StringVar(&o.resultsDir, "results-dir", "results", "the committed figure CSVs -all verifies fig11, fig16 and fig19 against at seed 42 (empty: skip)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.smoke {
		o.seconds /= 50
	}
	var err error
	switch {
	case o.describe:
		err = describe(out)
	case o.compare:
		return compareMode(out, fs.Args())
	case o.workload != "":
		return workloadMode(out, o)
	case o.record != "" || o.all || o.layers || o.trace == 1:
		err = suiteMode(out, o)
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// probes sizes a probe run: full by default, a twentieth for -smoke.
func (o options) probes(tmp string, heavy bool) *probeCtx {
	c := &probeCtx{seed: o.seed, tmp: tmp, reps: 5, scale: 1, heavy: heavy}
	if o.smoke {
		c.reps, c.scale = 2, 0.05
	}
	return c
}

// workloadMode runs one workload in this process and ends with the
// contract's result line. Exit status 1 means a correctness check
// failed (the line is still printed) or the run could not complete.
func workloadMode(out io.Writer, o options) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	def, ok := workloadByName(o.workload)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", o.workload))
	}
	tmp, err := scratchDir()
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	e := env{seed: o.seed, seconds: o.seconds, tmp: tmp}
	var rep *report
	if o.trace == 1 {
		rep, err = runTraced(def, e, o.traceDir, o.probes(tmp, false), out)
	} else {
		updateDir := ""
		if o.update {
			updateDir = o.expectedDir
		}
		rep, err = runEndToEnd(def, e, updateDir, out)
	}
	if err != nil {
		return fail(err)
	}
	if err := printReport(out, def.name, rep); err != nil {
		return fail(err)
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// child re-executes this binary for one workload, so each workload's
// peak_rss_mb is its own, echoes the child's human-readable lines and
// returns its report.
func child(out io.Writer, o options, workload string, seed uint64, trace int) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
		"-trace-dir", o.traceDir, "-expected-dir", o.expectedDir}
	if o.update {
		args = append(args, "-update-expected")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run() // Run waits for the child to exit
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	var rep report
	var extra struct {
		Outputs map[string]string
		Notes   []string
	}
	for _, l := range lines[:len(lines)-1] {
		if rest, ok := strings.CutPrefix(l, ledgerPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &extra); err != nil {
				return nil, fmt.Errorf("%s: bad ledger line: %w", workload, err)
			}
			continue
		}
		fmt.Fprintln(out, l)
	}
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: last line is not a result: %q", workload, last)
	}
	rep.Outputs, rep.Notes = extra.Outputs, extra.Notes
	return &rep, nil
}

// suiteMode runs the multi-workload modes: -all, -layers, -trace 1 and
// -record (which is all three).
func suiteMode(out io.Writer, o options) error {
	record := o.record != ""
	led := newLedger(o.seed, o.seconds)
	led.Sets = o.repeat
	failed := 0
	if o.all || record {
		for set := 0; set < o.repeat; set++ {
			seed := o.seed + uint64(set)
			for _, def := range workloads {
				rep, err := child(out, o, def.name, seed, 0)
				if err != nil {
					return err
				}
				failed += rep.Failed
				led.addEndToEnd(def.name, rep)
			}
		}
		if o.repeat > 1 {
			led.spreadTable(out)
		}
		if o.seed == pinnedSeed && o.resultsDir != "" && !o.smoke && !o.update {
			fmt.Fprintf(out, "# verifying fig11, fig16, fig19 at the paper schedule against %s/*.csv\n", o.resultsDir)
			if err := verifyFigures(o.resultsDir); err != nil {
				return err
			}
			fmt.Fprintln(out, "# paper-figs: regenerated CSVs are byte-identical to the committed results")
		}
	}
	if o.trace == 1 || record {
		for _, def := range workloads {
			rep, err := tracedInProcess(out, o, def)
			if err != nil {
				return err
			}
			failed += rep.Failed
			led.addTraced(def.name, rep)
			for _, name := range sortedKeys(rep.Metrics) {
				if name == "bench.trace_overhead_share" {
					fmt.Fprintln(out, metricLine(def.name, name+"."+def.name, rep.Metrics[name]))
				}
			}
		}
	}
	if o.layers || record {
		tmp, err := scratchDir()
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		values, err := runProbes(o.probes(tmp, true))
		if err != nil {
			return err
		}
		for _, lm := range layerMetrics {
			if v, ok := values[lm.name]; ok {
				mv := metricValue{Value: v, Unit: lm.unit}
				fmt.Fprintln(out, metricLine("layers", lm.name, mv))
				addTo(led.PerLayer, lm.name, mv)
			}
		}
	}
	if record {
		if err := led.write(o.record); err != nil {
			return err
		}
		fmt.Fprintf(out, "# ledger row written to %s\n", o.record)
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed a correctness check", failed)
	}
	return nil
}

// tracedInProcess runs one workload's traced pass without the probes
// (the suite runs those once, not once per workload).
func tracedInProcess(out io.Writer, o options, def workloadDef) (*report, error) {
	tmp, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := env{seed: o.seed, seconds: o.seconds, tmp: tmp}
	rep, err := runTraced(def, e, o.traceDir, nil, out)
	if err != nil {
		return nil, err
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(out, "# %s FAILED: %s\n", def.name, n)
	}
	return rep, nil
}

// compareMode is -compare a.json b.json. Exit status: 0 agree, 1 a
// metric regressed or a simulated output differs, 2 not comparable.
func compareMode(out io.Writer, paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two ledger files")
		return 2
	}
	var ledgers [2]*ledger
	for i, path := range paths {
		l, err := readLedger(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		ledgers[i] = l
	}
	regressed, differing, err := compareLedgers(out, ledgers[0], ledgers[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if regressed+differing > 0 {
		fmt.Fprintf(out, "%d metrics regressed, %d simulated outputs differ\n", regressed, differing)
		return 1
	}
	return 0
}

// describe prints BENCHMARK.json from the tables in this package, so
// the file and the program cannot drift apart (a test compares them).
func describe(out io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.loop + ": " + w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range layerMetrics {
		if !m.heavy {
			doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(doc)
}
