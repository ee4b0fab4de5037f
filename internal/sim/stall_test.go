package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"ringmesh/internal/packet"
)

func TestDetectCyclesFindsLoop(t *testing.T) {
	edges := []WaitEdge{
		{From: "a", To: "b", Why: "full"},
		{From: "b", To: "c", Why: "full"},
		{From: "c", To: "a", Why: "full"},
		{From: "x", To: "a", Why: "full"}, // feeder, not part of a cycle
	}
	cycles := detectCycles(edges)
	if len(cycles) != 1 {
		t.Fatalf("cycles = %v, want exactly one", cycles)
	}
	if !reflect.DeepEqual(cycles[0], []string{"a", "b", "c"}) {
		t.Fatalf("cycle = %v, want [a b c]", cycles[0])
	}
}

func TestDetectCyclesSelfLoop(t *testing.T) {
	cycles := detectCycles([]WaitEdge{{From: "n", To: "n", Why: "link faulted"}})
	if len(cycles) != 1 || len(cycles[0]) != 1 || cycles[0][0] != "n" {
		t.Fatalf("self-loop cycles = %v", cycles)
	}
}

func TestDetectCyclesAcyclic(t *testing.T) {
	edges := []WaitEdge{
		{From: "a", To: "b"}, {From: "b", To: "c"}, {From: "a", To: "c"},
	}
	if cycles := detectCycles(edges); len(cycles) != 0 {
		t.Fatalf("acyclic graph reported cycles %v", cycles)
	}
	if cycles := detectCycles(nil); len(cycles) != 0 {
		t.Fatalf("empty graph reported cycles %v", cycles)
	}
}

func TestDetectCyclesDedupsRotations(t *testing.T) {
	// The same physical loop reachable from two feeders must be
	// reported once, regardless of where the DFS enters it.
	edges := []WaitEdge{
		{From: "f1", To: "b"},
		{From: "f2", To: "c"},
		{From: "b", To: "c"},
		{From: "c", To: "b"},
	}
	cycles := detectCycles(edges)
	if len(cycles) != 1 {
		t.Fatalf("cycles = %v, want the b<->c loop once", cycles)
	}
}

func TestStallErrorUnwrapsToErrStalled(t *testing.T) {
	err := error(&StallError{Tick: 42, Report: &StallReport{BufferedFlits: 7}})
	if !errors.Is(err, ErrStalled) {
		t.Fatal("StallError does not unwrap to ErrStalled")
	}
	var se *StallError
	if !errors.As(err, &se) || se.Report.BufferedFlits != 7 {
		t.Fatal("errors.As lost the report")
	}
	if !strings.Contains(err.Error(), "tick 42") {
		t.Fatalf("error %q does not name the tick", err)
	}
}

// stuckComponent makes progress for a while, then freezes with load
// still reported in flight.
type stuckComponent struct {
	engine *Engine
	until  int64
}

func (c *stuckComponent) Compute(now int64) {}
func (c *stuckComponent) Commit(now int64) {
	if now < c.until {
		c.engine.Progress()
	}
}

func TestWatchdogReturnsStallErrorWithDiagnosis(t *testing.T) {
	e := &Engine{WatchdogTicks: 10}
	e.Register(&stuckComponent{engine: e, until: 5}, 1)
	called := 0
	e.Diagnose = func() *StallReport {
		called++
		return &StallReport{
			BufferedFlits: 3,
			WaitFor:       []WaitEdge{{From: "a", To: "a", Why: "test"}},
			Cycles:        [][]string{{"a"}},
		}
	}
	err := e.Run(100)
	if err == nil {
		t.Fatal("expected a stall")
	}
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("stall error %v does not match ErrStalled", err)
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("stall error %T is not a *StallError", err)
	}
	if se.Report == nil || se.Report.Tick != se.Tick || se.Report.Tick == 0 {
		t.Fatalf("report tick not stamped: %+v", se)
	}
	if called != 1 {
		t.Fatalf("Diagnose called %d times", called)
	}
	if !strings.Contains(se.Report.Summary(), "cycle: a") {
		t.Fatalf("summary %q misses the cycle", se.Report.Summary())
	}
}

func TestDiagnosePanicFallsBackToBareError(t *testing.T) {
	e := &Engine{WatchdogTicks: 10}
	e.Register(&stuckComponent{engine: e, until: 5}, 1)
	e.Diagnose = func() *StallReport { panic("forensics over inconsistent state") }
	err := e.Run(100)
	if err == nil || !errors.Is(err, ErrStalled) {
		t.Fatalf("want bare ErrStalled after diagnose panic, got %v", err)
	}
	var se *StallError
	if errors.As(err, &se) {
		t.Fatalf("panicking diagnose still produced a StallError: %v", err)
	}
}

func TestSortOldest(t *testing.T) {
	rep := NewStallReport(400, 0)
	pkts := make([]*packet.Packet, 8)
	for i := range pkts {
		pkts[i] = &packet.Packet{ID: uint64(i + 1), Issue: int64(100 * (i % 4))}
	}
	for _, p := range pkts {
		rep.Stuck(p, "q")
	}
	rep.Stuck(pkts[0], "later") // already noted: keeps its first place
	rep.Stuck(nil, "q")
	var got []uint64
	for _, p := range rep.Finish().Oldest {
		got = append(got, p.ID)
	}
	// Ages 400, 300, 200, 100 twice each: oldest first, ties in the
	// order noted, cut at five.
	if want := []uint64{1, 5, 2, 6, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("oldest IDs = %v, want %v", got, want)
	}
	if rep.Oldest[0].AgeTicks != 400 || rep.Oldest[0].Where != "q" {
		t.Fatalf("oldest = %+v", rep.Oldest[0])
	}
}

func TestBufferSkipsEmpty(t *testing.T) {
	rep := NewStallReport(0, 3)
	rep.Buffer("a", 0, 4)
	rep.Buffer("b", 3, 4)
	if want := []BufferStat{{Node: "b", Flits: 3, Capacity: 4}}; !reflect.DeepEqual(rep.Finish().Buffers, want) {
		t.Fatalf("buffers = %+v, want %+v", rep.Buffers, want)
	}
}

// A wait edge is a dependency, not a blocked packet: two packets
// waiting on the same thing for the same reason add one edge.
func TestWaitDropsRepeatedEdges(t *testing.T) {
	rep := NewStallReport(0, 0)
	rep.Wait("a", "b", "full")
	rep.Wait("a", "b", "full")
	rep.Wait("a", "b", "faulted")
	rep.Wait("b", "a", "full")
	want := []WaitEdge{{"a", "b", "full"}, {"a", "b", "faulted"}, {"b", "a", "full"}}
	if got := rep.Finish().WaitFor; !reflect.DeepEqual(got, want) {
		t.Fatalf("wait edges = %+v, want %+v", got, want)
	}
}

func TestSummaryNilSafe(t *testing.T) {
	var r *StallReport
	if r.Summary() == "" {
		t.Fatal("nil report summary empty")
	}
}
