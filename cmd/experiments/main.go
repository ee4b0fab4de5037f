// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -id fig14              # one experiment, text to stdout
//	experiments -all -out results/     # everything, text + CSV files
//	experiments -id fig6 -quick        # shortened runs (smoke)
//
// Every experiment is a deterministic simulation sweep; see DESIGN.md
// for the experiment index and EXPERIMENTS.md for measured-vs-paper
// discussion.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ringmesh/internal/exp"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiment ids and exit")
		id      = flag.String("id", "", "run a single experiment by id")
		all     = flag.Bool("all", false, "run every experiment")
		quick   = flag.Bool("quick", false, "shortened simulation runs")
		outDir  = flag.String("out", "", "also write <id>.txt and <id>.csv under this directory")
		plotIt  = flag.Bool("plot", false, "draw ASCII charts after each experiment")
		seed    = flag.Uint64("seed", 42, "simulation seed")
		workers = flag.Int("workers", runtime.NumCPU(), "concurrent simulations (>= 1)")
	)
	flag.Parse()

	// Reject rather than silently clamp: a script that computed 0 or a
	// negative worker count has a bug it should hear about.
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "experiments: -workers %d < 1\n", *workers)
		os.Exit(2)
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	spec := exp.DefaultSpec()
	if *quick {
		spec = exp.QuickSpec()
	}
	spec.Seed = *seed
	spec.Workers = *workers

	var todo []exp.Experiment
	switch {
	case *all:
		todo = exp.All()
	case *id != "":
		e, ok := exp.ByID(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *id)
			os.Exit(2)
		}
		todo = []exp.Experiment{e}
	default:
		flag.Usage()
		os.Exit(2)
	}

	for _, e := range todo {
		start := time.Now()
		out, err := e.Run(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if err := exp.WriteText(os.Stdout, out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *plotIt && len(out.Series) > 0 {
			if err := exp.WritePlot(os.Stdout, out); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if *outDir != "" {
			if err := writeFiles(*outDir, out); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}

func writeFiles(dir string, out exp.Output) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	txt, err := os.Create(filepath.Join(dir, out.ID+".txt"))
	if err != nil {
		return err
	}
	defer txt.Close()
	if err := exp.WriteText(txt, out); err != nil {
		return err
	}
	if len(out.Series) == 0 {
		return nil
	}
	csvf, err := os.Create(filepath.Join(dir, out.ID+".csv"))
	if err != nil {
		return err
	}
	defer csvf.Close()
	return exp.WriteCSV(csvf, out)
}
