package mesh

// Fault-injection behaviour tests at the model level: a dead router
// really stops forwarding (and recovers on schedule), a slowdown
// really delays delivery, and the stall report names the faulted
// router when the watchdog would trip.

import (
	"strings"
	"testing"

	"ringmesh/internal/fault"
	"ringmesh/internal/packet"
	"ringmesh/internal/topo"
)

func mustPlan(t *testing.T, s string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// A dead router (LinkStutter kills all four neighbour outputs) stops
// forwarding for exactly its scheduled window, then the parked packet
// crosses normally.
func TestLinkStutterBlocksForwardingThenRecovers(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustMeshSpec(2), LineBytes: 32, BufferFlits: 4})
	if err := h.applyFaults(mustPlan(t, "stutter@0+40:node=0")); err != nil {
		t.Fatal(err)
	}
	p := mkPkt(1, packet.ReadRequest, 0, 1, 32)
	h.pms[0].pendReq = append(h.pms[0].pendReq, p)
	h.run(t, 39)
	if len(h.pms[1].delivered) != 0 {
		t.Fatalf("packet crossed a dead router (delivered at %v)", h.pms[1].deliverAt)
	}
	h.run(t, 21)
	if len(h.pms[1].delivered) != 1 {
		t.Fatal("packet not delivered after the fault expired")
	}
	if at := h.pms[1].deliverAt[0]; at <= 40 {
		t.Fatalf("delivered at %d, inside the fault window", at)
	}
}

// NodeSlowdown with factor k must stretch a zero-load delivery: the
// router acts only every k-th cycle, so the unfaulted tick-6 delivery
// (see TestNeighborDelivery) happens strictly later.
func TestNodeSlowdownDelaysDelivery(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustMeshSpec(2), LineBytes: 32, BufferFlits: 4})
	if err := h.applyFaults(mustPlan(t, "slowdown@0+1000:node=0,factor=4")); err != nil {
		t.Fatal(err)
	}
	p := mkPkt(1, packet.ReadRequest, 0, 1, 32)
	h.pms[0].pendReq = append(h.pms[0].pendReq, p)
	h.run(t, 100)
	if len(h.pms[1].delivered) != 1 {
		t.Fatal("slowed packet never delivered")
	}
	if at := h.pms[1].deliverAt[0]; at <= 6 {
		t.Fatalf("delivered at %d despite 4x slowdown (unfaulted: 6)", at)
	}
}

// A permanently dead router with traffic parked at it must show up in
// the stall report: an active fault, a self-edge wait cycle on the
// router, and the parked packet among the oldest.
func TestStallReportNamesFaultedRouter(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustMeshSpec(2), LineBytes: 32, BufferFlits: 4})
	if err := h.applyFaults(mustPlan(t, "stutter@0+100000:node=0")); err != nil {
		t.Fatal(err)
	}
	p := mkPkt(1, packet.ReadRequest, 0, 1, 32)
	h.pms[0].pendReq = append(h.pms[0].pendReq, p)
	h.run(t, 50)
	rep := h.net.BuildStallReport(50)
	if len(rep.ActiveFaults) == 0 {
		t.Fatal("report lists no active fault")
	}
	selfEdge := false
	for _, e := range rep.WaitFor {
		if e.From == "router0" && e.To == "router0" && strings.Contains(e.Why, "faulted") {
			selfEdge = true
		}
	}
	if !selfEdge {
		t.Fatalf("no self-edge on the dead router: %+v", rep.WaitFor)
	}
	cycleNamed := false
	for _, cyc := range rep.Cycles {
		if len(cyc) == 1 && cyc[0] == "router0" {
			cycleNamed = true
		}
	}
	if !cycleNamed {
		t.Fatalf("cycles %v do not name router0", rep.Cycles)
	}
	if len(rep.Oldest) == 0 {
		t.Fatal("parked packet missing from the oldest list")
	}
}

func TestApplyFaultPlanValidates(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustMeshSpec(2), LineBytes: 32, BufferFlits: 4})
	if err := h.applyFaults(mustPlan(t, "stutter@0+10:node=99")); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := h.applyFaults(mustPlan(t, "degrade@0+10:node=0,port=7,factor=2")); err == nil {
		t.Fatal("out-of-range port accepted")
	}
}

// BuildStallReport asks pickMove the same question the switching logic
// asks, so the waits it names are pinned here edge for edge: a dead
// output (self-edge), a full downstream input, and a locked worm whose
// next flit is still upstream of a slowed router (the strings are what
// the per-call Spec.Route/Neighbor implementation reported).
func TestStallReportWaitEdges(t *testing.T) {
	cases := []struct {
		plan string
		at   int
		want []string
	}{
		{"stutter@0+100000:node=1", 60, []string{
			"router0 -> router1: east carrying #1 write-req 0→2 (12 flits): downstream input full",
			"router1 -> router1: east output port faulted",
		}},
		{"slowdown@0+100000:node=0,factor=4", 14, []string{
			"router1 -> router0: committed worm on east output, flits still upstream",
			"router3 -> router0: north carrying #2 write-req 3→0 (12 flits): downstream input full",
		}},
	}
	for _, tc := range cases {
		h := newHarness(t, Config{Spec: topo.MustMeshSpec(3), LineBytes: 32, BufferFlits: 4})
		if err := h.applyFaults(mustPlan(t, tc.plan)); err != nil {
			t.Fatal(err)
		}
		h.pms[0].pendReq = append(h.pms[0].pendReq, mkPkt(1, packet.WriteRequest, 0, 2, 32))
		h.pms[3].pendReq = append(h.pms[3].pendReq, mkPkt(2, packet.WriteRequest, 3, 0, 32))
		h.run(t, tc.at)
		var got []string
		for _, e := range h.net.BuildStallReport(int64(tc.at)).WaitFor {
			got = append(got, e.From+" -> "+e.To+": "+e.Why)
		}
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s at tick %d: waits\n%q\nwant\n%q", tc.plan, tc.at, got, tc.want)
		}
	}
}
