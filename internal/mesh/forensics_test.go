package mesh_test

// The mesh stall report pinned line for line, read straight from the
// model after a fixed run (an external test package: internal/core
// imports internal/mesh). -update re-records after a deliberate
// modelling change.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ringmesh/internal/core"
	"ringmesh/internal/fault"
	"ringmesh/internal/network"
	"ringmesh/internal/workload"
)

var update = flag.Bool("update", false, "re-record testdata/*.golden")

// A loaded 4x4 mesh whose router 5 stays dead from cycle 500: worms
// park at its neighbours' outputs and back up across the mesh.
func TestStallReportGolden(t *testing.T) {
	plan, err := fault.Parse("stutter@500+1000000:node=5")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.SystemConfig{
		Network:   "mesh",
		Net:       network.Config{Topology: "4x4", LineBytes: 32, BufferFlits: 4},
		Workload:  workload.MMRP{R: 1, C: 1, T: 16, ReadProb: 0.7},
		Seed:      1,
		FaultPlan: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StepCycles(3000); err != nil {
		t.Fatal(err)
	}
	rep := sys.Engine().Diagnose()
	var b strings.Builder
	fmt.Fprintf(&b, "buffered flits: %d\n", rep.BufferedFlits)
	for _, s := range rep.Buffers {
		fmt.Fprintf(&b, "buffer: %s %d/%d\n", s.Node, s.Flits, s.Capacity)
	}
	for _, f := range rep.ActiveFaults {
		fmt.Fprintf(&b, "fault: %s\n", f)
	}
	for _, e := range rep.WaitFor {
		fmt.Fprintf(&b, "wait: %s -> %s: %s\n", e.From, e.To, e.Why)
	}
	for _, c := range rep.Cycles {
		fmt.Fprintf(&b, "cycle: %s\n", strings.Join(c, " -> "))
	}
	for _, p := range rep.Oldest {
		fmt.Fprintf(&b, "oldest: #%d %s %d->%d age %d at %s\n",
			p.ID, p.Type, p.Src, p.Dst, p.AgeTicks, p.Where)
	}
	fmt.Fprintf(&b, "%s\n", rep.Summary())
	got := b.String()

	path := filepath.Join("testdata", "stall-4x4-dead.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("stall report changed\n got:\n%s\nwant:\n%s", got, want)
	}
}
