// Command benchguard runs benchmarks and compares their ns/op against
// checked-in baselines, failing when any measurement regresses past a
// threshold. It guards the engine's hot loop — in particular that the
// metrics instrumentation stays free when disabled.
//
// Usage:
//
//	go run ./cmd/benchguard                # compare against the baseline
//	go run ./cmd/benchguard -bench A,B,C   # guard several benchmarks in one run
//	go run ./cmd/benchguard -update        # re-record the baselines
//	go run ./cmd/benchguard -threshold 25  # loosen the gate (percent)
//
// Each benchmark runs -count times and the fastest run is compared:
// minimum-of-N is robust to scheduler noise, which only ever slows a
// run down. Every guarded benchmark is measured even after one fails,
// so a regression report names everything that regressed and by how
// much, not just the first offender.
//
// ns/op only compares on one machine class, so -update stamps the
// baseline file with a fingerprint (go version, CPU model, CPU count)
// and the guard gives no verdict against a baseline stamped elsewhere:
// it prints "not comparable, skipped" and exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	var (
		bench     = flag.String("bench", "BenchmarkEngineStepUniform", "benchmarks to guard (comma-separated exact names)")
		pkg       = flag.String("pkg", ".", "package holding the benchmarks")
		baseline  = flag.String("baseline", "ci/bench-baseline.txt", "baseline file path")
		count     = flag.Int("count", 5, "benchmark repetitions (fastest wins)")
		benchtime = flag.String("benchtime", "2000x", "go test -benchtime value")
		threshold = flag.Float64("threshold", 15, "allowed regression in percent")
		update    = flag.Bool("update", false, "record the measurements as the new baselines")
	)
	flag.Parse()

	benches := strings.Split(*bench, ",")
	for i := range benches {
		benches[i] = strings.TrimSpace(benches[i])
	}
	here := fingerprint()
	if !*update {
		body, err := os.ReadFile(*baseline)
		if err != nil {
			fail(fmt.Errorf("no baseline (run with -update to record one): %w", err))
		}
		if there := stampOf(body); there != here {
			fmt.Printf("benchguard: %s was recorded on [%s], this is [%s]: not comparable, skipped\n",
				*baseline, there, here)
			return
		}
	}

	var regressions []string
	for _, b := range benches {
		if b == "" {
			continue
		}
		got, err := measure(b, *pkg, *count, *benchtime)
		if err != nil {
			fail(err)
		}
		fmt.Printf("benchguard: %s = %.1f ns/op (best of %d)\n", b, got, *count)

		if *update {
			if err := writeBaseline(*baseline, here, b, got); err != nil {
				fail(err)
			}
			continue
		}

		want, err := readBaseline(*baseline, b)
		if err != nil {
			fail(err)
		}
		change := 100 * (got - want) / want
		fmt.Printf("benchguard: %s baseline %.1f ns/op, change %+.1f%% (limit +%.0f%%)\n",
			b, want, change, *threshold)
		if change > *threshold {
			regressions = append(regressions,
				fmt.Sprintf("%s regressed %+.1f%% (got %.1f ns/op, baseline %.1f)", b, change, got, want))
		}
	}
	if *update {
		fmt.Printf("benchguard: baselines written to %s\n", *baseline)
		return
	}
	if len(regressions) > 0 {
		fail(fmt.Errorf("%d of %d benchmarks past the +%.0f%% limit:\n  %s\nif intentional, re-record with -update",
			len(regressions), len(benches), *threshold, strings.Join(regressions, "\n  ")))
	}
	fmt.Println("benchguard: ok")
}

// measure runs the benchmark and returns the fastest observed ns/op.
func measure(bench, pkg string, count int, benchtime string) (float64, error) {
	cmd := exec.Command("go", "test", "-run=NONE",
		"-bench=^"+bench+"$", "-benchtime="+benchtime,
		"-count="+strconv.Itoa(count), pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("benchmark run failed: %w\n%s", err, out)
	}
	best := 0.0
	for _, line := range strings.Split(string(out), "\n") {
		v, ok := parseNsPerOp(line, bench)
		if !ok {
			continue
		}
		if best == 0 || v < best {
			best = v
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("no %q results in output:\n%s", bench, out)
	}
	return best, nil
}

// parseNsPerOp extracts ns/op from one `go test -bench` output line,
// e.g. "BenchmarkEngineStepUniform-8   2000   845.2 ns/op".
func parseNsPerOp(line, bench string) (float64, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || (f[0] != bench && !strings.HasPrefix(f[0], bench+"-")) {
		return 0, false
	}
	for i := 2; i+1 < len(f); i++ {
		if f[i+1] == "ns/op" {
			v, err := strconv.ParseFloat(f[i], 64)
			return v, err == nil && v > 0
		}
	}
	return 0, false
}

// fingerprintPrefix starts the baseline file's machine-class line.
const fingerprintPrefix = "# fingerprint: "

// fingerprint names this machine class: go version and platform, CPU
// model (where /proc/cpuinfo has one) and CPU count.
func fingerprint() string {
	cpu := "unknown cpu"
	if body, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(body), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%s %s/%s, %s, %d cpus",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu, runtime.NumCPU())
}

// stampOf returns the fingerprint a baseline file's body was stamped
// with, "" when the file is missing or predates the stamp.
func stampOf(body []byte) string {
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, fingerprintPrefix) {
			return strings.TrimPrefix(line, fingerprintPrefix)
		}
	}
	return ""
}

// writeBaseline records one benchmark's measurement, merging with the
// baselines already in the file when they carry this machine's
// fingerprint: the file holds one "name value" line per guarded
// benchmark, so re-recording one never drops the others. Rows stamped
// by another machine are dropped — they would not compare.
func writeBaseline(path, here, bench string, got float64) error {
	var lines []string
	if body, err := os.ReadFile(path); err == nil && stampOf(body) == here {
		replaced := false
		for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
			if f := strings.Fields(strings.TrimSpace(line)); len(f) == 2 && f[0] == bench {
				line = fmt.Sprintf("%s %.1f", bench, got)
				replaced = true
			}
			lines = append(lines, line)
		}
		if !replaced {
			lines = append(lines, fmt.Sprintf("%s %.1f", bench, got))
		}
	} else {
		lines = []string{
			"# Baseline ns/op recorded by cmd/benchguard -update.",
			"# Regenerate on the machine that runs the guard.",
			fingerprintPrefix + here,
			fmt.Sprintf("%s %.1f", bench, got),
		}
	}
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

// readBaseline finds the benchmark's recorded ns/op in the baseline
// file ("name value" lines; # starts a comment).
func readBaseline(path, bench string) (float64, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("no baseline (run with -update to record one): %w", err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == bench {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil || v <= 0 {
				return 0, fmt.Errorf("bad baseline line %q", line)
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("benchmark %q not in %s (run with -update)", bench, path)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
