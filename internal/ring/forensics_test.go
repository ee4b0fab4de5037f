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
	"ringmesh/internal/fault"
	"ringmesh/internal/network"
	"ringmesh/internal/sim"
	"ringmesh/internal/workload"
)

var update = flag.Bool("update", false, "re-record testdata/*.golden")

// renderStall prints the parts of a report the ring builder derives
// from station state: wait-for edges, cycles and the oldest packets.
func renderStall(rep *sim.StallReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "buffered flits: %d\n", rep.BufferedFlits)
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
	return b.String()
}

func TestStallReportWaitEdges(t *testing.T) {
	cases := []struct {
		name, topology, plan string
		t                    int
		seed                 uint64
		noVC                 bool
	}{
		// The hierarchy deadlock the package comment documents: the
		// paper's 72-PM configuration at T=2 under full load, VCs off
		// (seed 6 closes the cycle around tick 19 000; most seeds
		// survive this run length).
		{"novc-3x3x8-T2", "3:3:8", "", 2, 6, true},
		// A transient dead link at full load wedges the VC-less 2:4
		// ring for good; the fault has expired by the time of the trip.
		{"novc-2x4-deadlink", "2:4", "stutter@3000+4000:node=0", 16, 1, true},
		// A permanently dead NIC output with the VCs on: the fault is
		// still active at the trip, and the refusals behind it include
		// the bubble rule and worms committed across the dead link.
		{"vc-2x4-faulted", "2:4", "stutter@1000+1000000:node=0", 16, 1, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.SystemConfig{
				Network:  "ring",
				Net:      network.Config{Topology: tc.topology, LineBytes: 32, UnsafeNoVC: tc.noVC},
				Workload: workload.MMRP{R: 1, C: 1, T: tc.t, ReadProb: 0.7},
				Seed:     tc.seed,
			}
			if tc.plan != "" {
				plan, err := fault.Parse(tc.plan)
				if err != nil {
					t.Fatal(err)
				}
				cfg.FaultPlan = plan
			}
			sys, err := core.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = sys.Run(core.RunConfig{WarmupCycles: 2000, BatchCycles: 20000, Batches: 4,
				WatchdogCycles: 5000, FailOnStall: true})
			var se *sim.StallError
			if !errors.As(err, &se) || se.Report == nil {
				t.Fatalf("err = %v, want a *sim.StallError with a report", err)
			}
			got := renderStall(se.Report)
			path := filepath.Join("testdata", "stall-"+tc.name+".golden")
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
		})
	}
}
