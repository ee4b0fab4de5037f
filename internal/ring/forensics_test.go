package ring_test

// The stall report pinned edge for edge, through the same core
// assembly the CLI uses (an external test package: internal/core
// imports internal/ring). Forensics shares candidate/accepts and the
// station's exit fields with the hot path, so a change to either has
// to reproduce these reports exactly. Recorded at the commit before
// the station fast path; -update re-records after a deliberate
// modelling change.

import (
	"errors"
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

// renderStall prints the parts of a report the ring builder derives
// from station state: buffers, wait-for edges, cycles and the oldest
// packets.
func renderStall(rep *sim.StallReport) string {
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
	return b.String()
}

// The hierarchy deadlock the package comment documents: the paper's
// 72-PM configuration at T=2 under full load, VCs off (seed 6 closes
// the cycle around tick 19 000; most seeds survive this run length).
func TestStallReportWaitEdges(t *testing.T) {
	t.Run("novc-3x3x8-T2", func(t *testing.T) {
		sys, err := core.NewSystem(core.SystemConfig{
			Network:  "ring",
			Net:      network.Config{Topology: "3:3:8", LineBytes: 32, UnsafeNoVC: true},
			Workload: workload.MMRP{R: 1, C: 1, T: 2, ReadProb: 0.7},
			Seed:     6,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sys.Run(core.RunConfig{WarmupCycles: 2000, BatchCycles: 20000, Batches: 4,
			WatchdogCycles: 5000, FailOnStall: true})
		var se *sim.StallError
		if !errors.As(err, &se) || se.Report == nil {
			t.Fatalf("err = %v, want a *sim.StallError with a report", err)
		}
		checkStallGolden(t, "novc-3x3x8-T2", renderStall(se.Report))
	})
}

// snapshot reads the stall report of a loaded 2:3:4 ring (C=1, T=16,
// seed 1) after 3500 cycles, the report an operator would get by
// asking a running system. Nothing is stalled, but at that load and
// instant every refusal the builder knows shows: full transit buffers
// and IRI queues, the bubble rule, worms committed behind a link or
// across an IRI queue and, on the slotted ring, NACKed packets and
// injections with no admissible slot.
func snapshot(t *testing.T, slotted bool) *sim.StallReport {
	t.Helper()
	sys, err := core.NewSystem(core.SystemConfig{
		Network:  "ring",
		Net:      network.Config{Topology: "2:3:4", LineBytes: 32, SlottedSwitching: slotted},
		Workload: workload.MMRP{R: 1, C: 1, T: 16, ReadProb: 0.7},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.StepCycles(3500); err != nil {
		t.Fatal(err)
	}
	return sys.Engine().Diagnose()
}

// The wormhole builder on a loaded system with the VCs on.
func TestWormholeStallReportGolden(t *testing.T) {
	checkStallGolden(t, "vc-2x3x4-loaded", renderStall(snapshot(t, false)))
}

// The slotted builder on the same loaded system.
func TestSlottedStallReportGolden(t *testing.T) {
	rep := snapshot(t, true)
	checkStallGolden(t, "slotted-2x3x4-loaded", renderStall(rep)+rep.Summary()+"\n")
}

// A loaded hierarchy with its virtual channels on cannot deadlock
// (package comment), so no snapshot of one may name a wait-for cycle:
// 3:3:8 at full load (C 1, T 16), seeds 1–3, every 500 cycles to
// 10 000. Edges between stations, which mix both channels and the
// injection queues, named one in 14 of these 60 snapshots.
func TestStallReportNamesNoFalseCycle(t *testing.T) {
	snapshots, cyclic := 0, 0
	for seed := uint64(1); seed <= 3; seed++ {
		sys, err := core.NewSystem(core.SystemConfig{
			Network:  "ring",
			Net:      network.Config{Topology: "3:3:8", LineBytes: 32},
			Workload: workload.MMRP{R: 1, C: 1, T: 16, ReadProb: 0.7},
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for now := 500; now <= 10000; now += 500 {
			if err := sys.StepCycles(500); err != nil {
				t.Fatal(err)
			}
			snapshots++
			if rep := sys.Engine().Diagnose(); len(rep.Cycles) > 0 {
				cyclic++
				t.Logf("seed %d cycle %d names %v", seed, now, rep.Cycles)
			}
		}
	}
	if cyclic > 0 {
		t.Errorf("%d of %d snapshots of a deadlock-free network name a wait-for cycle", cyclic, snapshots)
	}
}

func checkStallGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "stall-"+name+".golden")
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
