package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilTraceIsFree(t *testing.T) {
	var tr *Trace
	tr.Record(SpanRecord{Name: "y", Attrs: []Attr{{"k", "v"}}}) // must not panic
	if tr.Spans() != nil || tr.Dropped() != 0 {
		t.Fatalf("nil trace holds state")
	}
	var b strings.Builder
	if err := tr.WriteChrome(&b, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"traceEvents":[]`) {
		t.Fatalf("nil trace export not empty: %s", b.String())
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace(16)
	start := time.Now()
	tr.Record(SpanRecord{Name: "validate", Start: start, Dur: time.Millisecond, Attrs: []Attr{{"kind", "run"}, {"family", "mesh"}}})
	tr.Record(SpanRecord{Name: "run", TID: 1, Start: start.Add(time.Millisecond), Dur: 2 * time.Millisecond})
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "validate" || len(spans[0].Attrs) != 2 {
		t.Fatalf("first span wrong: %+v", spans[0])
	}
	if spans[1].Name != "run" || spans[1].TID != 1 || spans[1].Dur != 2*time.Millisecond {
		t.Fatalf("second span wrong: %+v", spans[1])
	}
	// Spans is a snapshot: writing to it leaves the trace alone.
	spans[0].Name = "mutated"
	if tr.Spans()[0].Name != "validate" {
		t.Fatalf("Spans shares storage with the trace")
	}
}

func TestTraceBound(t *testing.T) {
	tr := NewTrace(2)
	for i := 0; i < 5; i++ {
		tr.Record(SpanRecord{Name: "s"})
	}
	if n := len(tr.Spans()); n != 2 {
		t.Fatalf("bound not enforced: %d spans", n)
	}
	if tr.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.Dropped())
	}
}

func TestWriteChrome(t *testing.T) {
	tr := NewTrace(8)
	base := time.Now()
	tr.Record(SpanRecord{Name: "queue-wait", Start: base, Dur: 2 * time.Millisecond})
	tr.Record(SpanRecord{
		Name: "run", TID: 1, Start: base.Add(2 * time.Millisecond),
		Dur: 5 * time.Millisecond, Attrs: []Attr{{"family", "ring"}},
	})
	var b strings.Builder
	if err := tr.WriteChrome(&b, 7); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			PID  int               `json:"pid"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("export not valid JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev.Name != "queue-wait" || ev.Ph != "X" || ev.TS != 0 || ev.Dur != 2000 || ev.PID != 7 {
		t.Fatalf("first event wrong: %+v", ev)
	}
	ev = doc.TraceEvents[1]
	if ev.TS != 2000 || ev.TID != 1 || ev.Args["family"] != "ring" {
		t.Fatalf("second event wrong: %+v", ev)
	}
}

func TestPhaseStatsNil(t *testing.T) {
	var p *PhaseStats
	p.AddCompute(0, time.Second) // must not panic
	p.AddCommit(time.Second)
	p.AddBarrierWait(0, time.Second)
	p.AddTicks(1)
	if p.TotalComputeNS() != 0 || p.TotalCommitNS() != 0 {
		t.Fatalf("nil phase stats hold state")
	}
	if p.String() != "phase stats disabled" {
		t.Fatalf("nil String() = %q", p.String())
	}
}

func TestPhaseStatsAccumulate(t *testing.T) {
	p := NewPhaseStats([]string{"a", "b"}, 2)
	p.AddCompute(0, 3*time.Millisecond)
	p.AddCompute(1, 5*time.Millisecond)
	p.AddCommit(time.Millisecond)
	p.AddBarrierWait(1, 100*time.Microsecond)
	p.AddTicks(7)
	if got := p.TotalComputeNS(); got != int64(8*time.Millisecond) {
		t.Errorf("TotalComputeNS = %d", got)
	}
	if got := p.TotalCommitNS(); got != int64(time.Millisecond) {
		t.Errorf("TotalCommitNS = %d", got)
	}
	if p.Barrier[1].Count() != 1 || p.Barrier[0].Count() != 0 {
		t.Errorf("barrier digests wrong")
	}
	s := p.String()
	for _, want := range []string{"7 ticks", "shard a", "shard b", "serial commit", "worker 0", "worker 1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}
