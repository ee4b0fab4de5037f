package ring

// Fault-injection behaviour tests for both switching techniques: a
// dead station output really stops traffic (and recovers on
// schedule), and the forensic report names the faulted station.

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

func flatCfg(line int) Config {
	spec, err := topo.ParseRingSpec("4")
	if err != nil {
		panic(err)
	}
	return Config{Spec: spec, LineBytes: line}
}

// A dead output link on the source's own station pins the packet in
// its NIC for exactly the fault window.
func TestStationFaultBlocksThenRecovers(t *testing.T) {
	h := newHarness(t, flatCfg(32))
	if err := h.applyFaults(mustPlan(t, "stutter@0+50:node=0")); err != nil {
		t.Fatal(err)
	}
	p := mkPkt(1, packet.ReadRequest, 0, 2, 32)
	h.pms[0].pendReq = append(h.pms[0].pendReq, p)
	h.run(t, 49)
	if len(h.pms[2].delivered) != 0 {
		t.Fatalf("packet crossed a dead link (delivered at %v)", h.pms[2].deliverAt)
	}
	h.run(t, 30)
	if len(h.pms[2].delivered) != 1 {
		t.Fatal("packet not delivered after the fault expired")
	}
	if at := h.pms[2].deliverAt[0]; at <= 50 {
		t.Fatalf("delivered at %d, inside the fault window", at)
	}
}

// The same scenario on the slotted network: the faulted attachment
// keeps NACKing, the packet circulates or waits, and delivery resumes
// after the window.
func TestSlottedStationFaultBlocksThenRecovers(t *testing.T) {
	cfg := flatCfg(32)
	cfg.Switching = Slotted
	h := newSlottedHarness(t, cfg)
	if err := h.applyFaults(mustPlan(t, "stutter@0+60:node=0")); err != nil {
		t.Fatal(err)
	}
	p := mkPkt(1, packet.ReadRequest, 0, 2, 32)
	h.pms[0].pendReq = append(h.pms[0].pendReq, p)
	h.run(t, 59)
	if len(h.pms[2].delivered) != 0 {
		t.Fatalf("packet crossed a faulted attachment (delivered at %v)", h.pms[2].deliverAt)
	}
	h.run(t, 120)
	if len(h.pms[2].delivered) != 1 {
		t.Fatal("packet not delivered after the fault expired")
	}
}

// A permanently dead station with a packet waiting to leave must show
// in the stall report: the active fault, a self-edge cycle on the
// station, and the packet among the oldest.
func TestStallReportNamesFaultedStation(t *testing.T) {
	h := newHarness(t, flatCfg(32))
	if err := h.applyFaults(mustPlan(t, "stutter@0+100000:node=1")); err != nil {
		t.Fatal(err)
	}
	// 0 -> 2 passes through station 1, whose output is dead: the worm
	// parks in station 1's transit buffer.
	p := mkPkt(1, packet.ReadRequest, 0, 2, 32)
	h.pms[0].pendReq = append(h.pms[0].pendReq, p)
	h.run(t, 60)
	rep := h.net.BuildStallReport(60)
	if len(rep.ActiveFaults) == 0 {
		t.Fatal("report lists no active fault")
	}
	found := false
	for _, e := range rep.WaitFor {
		if e.From == e.To && strings.Contains(e.Why, "faulted") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no self-edge on the dead station: %+v", rep.WaitFor)
	}
	if len(rep.Cycles) == 0 {
		t.Fatalf("no cycle detected for the dead station: %+v", rep.WaitFor)
	}
	if len(rep.Oldest) == 0 {
		t.Fatal("parked packet missing from the oldest list")
	}
}

func TestRingApplyFaultPlanValidates(t *testing.T) {
	h := newHarness(t, flatCfg(32))
	if err := h.applyFaults(mustPlan(t, "stutter@0+10:node=42")); err == nil {
		t.Fatal("out-of-range station accepted")
	}
	// Rings have a single output port per station.
	if err := h.applyFaults(mustPlan(t, "degrade@0+10:node=0,port=1,factor=2")); err == nil {
		t.Fatal("out-of-range port accepted")
	}
}
