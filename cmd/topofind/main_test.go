package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ringmesh/internal/network"
	"ringmesh/internal/topo"
)

// runCmd drives the command in-process and returns its exit code and
// both streams.
func runCmd(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// starred returns the topology of the row marked with "*".
func starred(t *testing.T, out string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) > 1 && f[0] == "*" {
			return f[1]
		}
	}
	t.Fatalf("no starred row in:\n%s", out)
	return ""
}

// TestStarIsTable2Pick: without -simulate, the starred hierarchy is
// the one the table2 experiment and nodes:N resolve pick, in every
// cell of the paper's Table 2.
func TestStarIsTable2Pick(t *testing.T) {
	for cell := range network.PaperTable2 {
		p, line := cell[0], cell[1]
		want, err := network.RingTopologyFor(p, line)
		if err != nil {
			t.Fatal(err)
		}
		code, out, errOut := runCmd("-nodes", fmt.Sprint(p), "-line", fmt.Sprint(line))
		if code != 0 {
			t.Fatalf("%d PMs / %dB: exit %d: %s", p, line, code, errOut)
		}
		if got := starred(t, out); got != want.String() {
			t.Errorf("%d PMs / %dB: starred %s; RingTopologyFor says %s", p, line, got, want)
		}
	}
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		args    []string
		code    int
		wantErr string
	}{
		{[]string{"-line", "48"}, 2, "unsupported line size 48B"},
		{[]string{"-pareto"}, 2, "flag provided but not defined: -pareto"},
		{[]string{"-nodes", "7", "-line", "128"}, 1, "no admissible ring topology for 7 PMs"},
		{[]string{"-nodes", "1"}, 1, "at least 2 PMs"},
	}
	for _, c := range cases {
		code, out, errOut := runCmd(c.args...)
		if code != c.code || !strings.Contains(errOut, c.wantErr) || out != "" {
			t.Errorf("topofind %v: exit %d, stdout %q, stderr %q; want exit %d naming %q",
				c.args, code, out, errOut, c.code, c.wantErr)
		}
	}
}

// TestSimulateSameAtAnyWorkerCount: every simulated latency lands in
// its own candidate's slot, so the report is byte-identical however
// many workers ran it.
func TestSimulateSameAtAnyWorkerCount(t *testing.T) {
	var outs [2]string
	for i, w := range []string{"1", "2"} {
		code, out, errOut := runCmd("-nodes", "12", "-line", "32", "-simulate", "-workers", w)
		if code != 0 {
			t.Fatalf("-workers %s: exit %d: %s", w, code, errOut)
		}
		outs[i] = out
	}
	if outs[0] != outs[1] {
		t.Fatalf("-workers 1 and 2 differ:\n%s\n---\n%s", outs[0], outs[1])
	}
	if strings.Contains(outs[0], " -\n") {
		t.Fatalf("a candidate has no simulated latency:\n%s", outs[0])
	}
}

// TestSortCandidatesDeterministic: -simulate orders by simulated
// latency and keeps the Table 2 order among equal latencies.
func TestSortCandidatesDeterministic(t *testing.T) {
	spec := func(s string) topo.RingSpec {
		r, err := topo.ParseRingSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cands := []candidate{
		{Spec: spec("3:4"), Simulated: 36.6},
		{Spec: spec("2:6"), Simulated: 36.4},
		{Spec: spec("2:2:3"), Simulated: 36.4},
		{Spec: spec("2:3:2"), Simulated: 30},
	}
	sortBySimulated(cands)
	want := []string{"2:3:2", "2:6", "2:2:3", "3:4"}
	for i, w := range want {
		if got := cands[i].Spec.String(); got != w {
			t.Fatalf("order[%d] = %s; want %s (full order %v)", i, got, w, cands)
		}
	}
}
