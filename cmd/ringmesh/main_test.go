package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/cli.golden")

// short is a schedule that keeps every golden case under a second.
const short = "-warmup 500 -batch 500 -batches 3"

// goldenCases drives every output shape the command has: both
// networks, every ring knob, the analytic tier, the percentile,
// trace and metrics printouts, a fault plan, a stall (exit 3, forensic
// summary on stderr) and rejected flag sets (exit 2, one line on
// stderr).
var goldenCases = []string{
	"-net ring -topo 2:4 -line 32 " + short,
	"-net mesh -nodes 16 -line 32 -buf 1 -R 0.3 " + short,
	"-net ring -topo 2:3:4 -line 64 -double-global -mem 20 -T 2 -C 0.02 -read-prob 0.5 -seed 9 -workers 2 " + short,
	"-net ring -nodes 12 -line 64 -slotted -v " + short,
	"-net ring -topo 3:3:8 -fidelity analytic",
	"-net mesh -nodes 64 -line 128 -buf 1 -C 0.5 -fidelity analytic",
	"-net ring -topo 2:3 -trace-packet 5 " + short,
	"-net mesh -topo 3x3 -metrics -metrics-interval 250 " + short,
	"-net ring -topo 2:4 -seed 1 -warmup 500 -batch 1000 -batches 3 -fault-plan stutter@600+2000:node=0",
	"-net ring -topo 2:4 -line 32 -seed 1 -R 1 -C 1 -T 16 -unsafe-no-vc -fault-plan stutter@3000+4000:node=0 -warmup 2000 -batch 30000 -batches 4",
	"-net torus",
	"-net mesh -nodes 15",
	"-net ring -nodes 7 -line 128",
	"-topo 2::3",
	"-workers 0",
	"-metrics-interval 0",
	"-fidelity analytic -v",
	"-fidelity analytic -slotted",
}

// TestGolden pins stdout, stderr and the exit code of each case byte
// for byte (-update re-records, for a deliberate output change only).
func TestGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenCases {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(c), &stdout, &stderr)
		fmt.Fprintf(&b, "$ ringmesh %s\nexit %d\n-- stdout --\n%s-- stderr --\n%s\n", c, code, &stdout, &stderr)
	}
	const path = "testdata/cli.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	if b.String() != string(want) {
		t.Errorf("command output drifted from %s:\n%s", path, b.String())
	}
}

// TestMetricsOut covers the one output the golden cannot hold, a file:
// the sampled series lands in the named file in the format its suffix
// selects.
func TestMetricsOut(t *testing.T) {
	for name, firstByte := range map[string]byte{"series.csv": 't', "series.jsonl": '{'} {
		path := filepath.Join(t.TempDir(), name)
		var stdout, stderr bytes.Buffer
		args := strings.Fields("-net ring -topo 2:4 -metrics-out " + path + " " + short)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", name, code, &stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 || data[0] != firstByte {
			t.Errorf("%s starts %.20q, want first byte %q", name, data, firstByte)
		}
		if !strings.Contains(stdout.String(), "-> "+path) {
			t.Errorf("%s: stdout does not report the file: %q", name, &stdout)
		}
	}
}

// TestBadSchedulesExitConfig: every out-of-range schedule or workload
// flag is a configuration error (exit 2) with one line on stderr and
// nothing on stdout.
func TestBadSchedulesExitConfig(t *testing.T) {
	for _, c := range []string{
		"-warmup -1", "-batch 0", "-batches 0", "-timeout -5s",
		"-R 1.5", "-C 0", "-T 0", "-read-prob 2", "-fault-plan bogus@", "-fidelity auto", "-fidelity nonesuch",
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(c), &stdout, &stderr); code != exitConfig {
			t.Errorf("%s: exit %d, want %d", c, code, exitConfig)
		}
		if stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 || !strings.HasPrefix(stderr.String(), "ringmesh: ") {
			t.Errorf("%s: stdout %q stderr %q, want one ringmesh: line on stderr", c, &stdout, &stderr)
		}
	}
}
