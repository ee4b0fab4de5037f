package mesh_test

// The mesh stall report read straight from the model after a fixed run
// (an external test package: internal/core imports internal/mesh).
// -update re-records the golden after a deliberate modelling change.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ringmesh/internal/core"
	"ringmesh/internal/network"
	"ringmesh/internal/sim"
	"ringmesh/internal/workload"
)

var update = flag.Bool("update", false, "re-record testdata/*.golden")

// snapshot reads the stall report of a loaded KxK mesh (C=1, T=16,
// 4-flit buffers) after the given number of cycles: the report an
// operator would get by asking a running system.
func snapshot(t *testing.T, topology string, seed uint64, cycles int64) *sim.StallReport {
	t.Helper()
	sys, err := core.NewSystem(core.SystemConfig{
		Network:  "mesh",
		Net:      network.Config{Topology: topology, LineBytes: 32, BufferFlits: 4},
		Workload: workload.MMRP{R: 1, C: 1, T: 16, ReadProb: 0.7},
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StepCycles(cycles); err != nil {
		t.Fatal(err)
	}
	return sys.Engine().Diagnose()
}

// A loaded 4x4 mesh after 3000 cycles: worms back up behind full
// inputs across the mesh, and every wait names the two channels it
// joins.
func TestStallReportGolden(t *testing.T) {
	rep := snapshot(t, "4x4", 1, 3000)
	var b strings.Builder
	fmt.Fprintf(&b, "buffered flits: %d\n", rep.BufferedFlits)
	for _, s := range rep.Buffers {
		fmt.Fprintf(&b, "buffer: %s %d/%d\n", s.Node, s.Flits, s.Capacity)
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

	path := filepath.Join("testdata", "stall-4x4-loaded.golden")
	if *update {
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

// E-cube routing cannot deadlock, so no fault-free report may name a
// wait-for cycle. Edges between routers did: two flows crossing between
// two routers in opposite directions read as a two-router cycle.
// Between channels they are two unrelated edges.
func TestStallReportNamesNoFalseCycle(t *testing.T) {
	for _, topology := range []string{"4x4", "8x8"} {
		for seed := uint64(1); seed <= 10; seed++ {
			for _, cycles := range []int64{1000, 3000} {
				rep := snapshot(t, topology, seed, cycles)
				if len(rep.WaitFor) == 0 {
					t.Errorf("%s seed %d at %d: a loaded mesh reports no wait", topology, seed, cycles)
				}
				if len(rep.Cycles) != 0 {
					t.Errorf("%s seed %d at %d: false wait-for cycle %v", topology, seed, cycles, rep.Cycles)
				}
			}
		}
	}
}
