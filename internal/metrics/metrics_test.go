package metrics

import (
	"strings"
	"testing"

	"ringmesh/internal/sim"
)

// A nil registry hands out nil instruments and every call no-ops —
// the zero-cost-when-disabled contract.
func TestNilRegistryIsNoOp(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x", Labels{})
	if c != nil {
		t.Fatal("nil registry returned a live counter")
	}
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	reg.Gauge("g", Labels{}, nil) // nil callback must not panic via nil registry
	reg.CounterFunc("f", Labels{}, nil)
	reg.Ratio("r", Labels{}, sim.LinkGroup{})
	reg.Reset()
	if reg.Series() != nil {
		t.Fatal("nil registry has series")
	}
	if s := NewSampler(reg, 10); s != nil {
		t.Fatal("sampler over nil registry")
	}
	var sp *Sampler
	sp.OnCycle(0, 0)
	sp.Reset()
	if sp.Keys() != nil || sp.Samples() != nil {
		t.Fatal("nil sampler returned data")
	}
	if err := sp.WriteCSV(nil); err != nil {
		t.Fatal(err)
	}
}

func TestLabelsKey(t *testing.T) {
	l := Labels{Link: "L0", Class: "req"}
	if got := l.String(); got != "{link=L0,class=req}" {
		t.Fatalf("labels = %q", got)
	}
	if got := (Labels{}).String(); got != "" {
		t.Fatalf("empty labels = %q", got)
	}
	reg := &Registry{}
	reg.Counter("stalls", l)
	if got := reg.Series()[0].Key(); got != "stalls{link=L0,class=req}" {
		t.Fatalf("key = %q", got)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate series")
		}
	}()
	reg := &Registry{}
	reg.Counter("x", Labels{Node: "a"})
	reg.Counter("x", Labels{Node: "a"})
}

func TestCounterGaugeRatioValues(t *testing.T) {
	reg := &Registry{}
	c := reg.Counter("events", Labels{})
	g := 3.5
	reg.Gauge("depth", Labels{}, func() float64 { return g })
	var clock, u1, u2 int64
	reg.Ratio("util", Labels{}, sim.LinkGroup{Clock: &clock, Busy: []*int64{&u1, &u2}})

	c.Add(7)
	u1 += 3
	clock += 4 // merged: 3 busy / 8 capacity
	vals := map[string]float64{}
	for _, s := range reg.Series() {
		vals[s.Key()] = s.Value()
	}
	if vals["events"] != 7 || vals["depth"] != 3.5 || vals["util"] != 3.0/8.0 {
		t.Fatalf("values = %v", vals)
	}

	// Reset rebases counter and ratio series without touching the
	// owners' counts; gauges are untouched.
	reg.Reset()
	g = 9
	u2++
	clock += 2 // since the reset: 1 busy / 4 capacity
	for _, s := range reg.Series() {
		if s.Name == "events" && s.Value() != 0 {
			t.Fatal("counter series survived reset")
		}
		if s.Name == "util" && (s.Value() != 1.0/4.0 || u1 != 3) {
			t.Fatalf("ratio after reset = %v (owner's count %d), want 1/4 (3)", s.Value(), u1)
		}
		if s.Name == "depth" && s.Value() != 9 {
			t.Fatal("gauge not live after reset")
		}
	}
}

// A CounterFunc series reads a count its owner keeps, and Reset
// rebases the series without touching the owner's count.
func TestCounterFuncReadsAndRebases(t *testing.T) {
	reg := &Registry{}
	var stalls int64
	reg.CounterFunc("stalls", Labels{Node: "nic0"}, func() int64 { return stalls })
	s := reg.Series()[0]
	if s.Kind != KindCounter {
		t.Fatalf("kind = %v, want counter", s.Kind)
	}
	stalls = 7
	if s.Value() != 7 {
		t.Fatalf("value = %g, want the callback's 7", s.Value())
	}
	reg.Reset()
	if s.Value() != 0 || stalls != 7 {
		t.Fatalf("after reset: value = %g, owner's count = %d; want 0 and 7", s.Value(), stalls)
	}
	stalls += 5
	if s.Value() != 5 {
		t.Fatalf("value = %g, want the 5 counted since the reset", s.Value())
	}
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE stalls counter\n" + `stalls{node="nic0"} 5` + "\n"; text.String() != want {
		t.Fatalf("text:\n%s\nwant:\n%s", text.String(), want)
	}
}

// After the warmup reset (registry and sampler together, as the core
// runner does), each sampler window of a CounterFunc series is exactly
// the count taken in that window.
func TestCounterFuncSamplerAfterReset(t *testing.T) {
	reg := &Registry{}
	var turns int64
	reg.CounterFunc("turns", Labels{}, func() int64 { return turns })
	s := NewSampler(reg, 10)
	turns = 40 // warmup
	s.OnCycle(9, 0)
	reg.Reset()
	s.Reset()
	var want []float64
	for w, n := range []int64{3, 0, 11} {
		turns += n
		want = append(want, float64(n))
		s.OnCycle(int64(10*w+19), 0)
	}
	rows := s.Samples()
	if len(rows) != len(want) {
		t.Fatalf("%d rows after reset, want %d", len(rows), len(want))
	}
	for i, row := range rows {
		if row.Values[0] != want[i] {
			t.Fatalf("window %d = %g, want %g", i, row.Values[0], want[i])
		}
	}
}

// Interleaved registrations of several families still render each
// family as one group under one TYPE line, in first-registration
// order (the exposition format allows one TYPE line per name).
func TestWriteTextGroupsInterleavedFamilies(t *testing.T) {
	reg := &Registry{}
	for _, class := range []string{"a", "b"} {
		reg.Counter("admit_total", Labels{Class: class}).Inc()
		reg.Counter("shed_total", Labels{Class: class})
		reg.Gauge("depth", Labels{Class: class}, func() float64 { return 2 })
	}
	reg.Gauge("depth", Labels{}, func() float64 { return 4 })
	reg.Histogram("wait", Labels{Class: "a"}, []float64{1})
	reg.Counter("admit_total", Labels{Class: "c"})
	reg.Histogram("wait", Labels{Class: "b"}, []float64{1})
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE admit_total counter
admit_total{class="a"} 1
admit_total{class="b"} 1
admit_total{class="c"} 0
# TYPE shed_total counter
shed_total{class="a"} 0
shed_total{class="b"} 0
# TYPE depth gauge
depth{class="a"} 2
depth{class="b"} 2
depth 4
# TYPE wait histogram
wait_bucket{class="a",le="1"} 0
wait_bucket{class="a",le="+Inf"} 0
wait_sum{class="a"} 0
wait_count{class="a"} 0
wait_bucket{class="b",le="1"} 0
wait_bucket{class="b",le="+Inf"} 0
wait_sum{class="b"} 0
wait_count{class="b"} 0
`
	if text.String() != want {
		t.Fatalf("text:\n%s\nwant:\n%s", text.String(), want)
	}
}

// The sampler records windowed values: counter deltas and per-window
// utilization, gauges instantaneously.
func TestSamplerWindows(t *testing.T) {
	reg := &Registry{}
	c := reg.Counter("events", Labels{})
	var clock, u int64
	reg.Ratio("util", Labels{}, sim.LinkGroup{Clock: &clock, Busy: []*int64{&u}})
	depth := 0.0
	reg.Gauge("depth", Labels{}, func() float64 { return depth })

	s := NewSampler(reg, 10)
	if got := s.Keys(); len(got) != 3 {
		t.Fatalf("keys = %v", got)
	}
	for tick := int64(0); tick < 20; tick++ {
		c.Inc()
		clock++
		if tick < 10 {
			u++ // first window fully busy, second idle
		}
		depth = float64(tick)
		s.OnCycle(tick, 0)
	}
	rows := s.Samples()
	if len(rows) != 2 {
		t.Fatalf("%d samples, want 2", len(rows))
	}
	if rows[0].Tick != 9 || rows[1].Tick != 19 {
		t.Fatalf("ticks = %d, %d", rows[0].Tick, rows[1].Tick)
	}
	// events: 10 per window; util: 1.0 then 0.0; depth: instantaneous.
	if rows[0].Values[0] != 10 || rows[1].Values[0] != 10 {
		t.Fatalf("counter windows = %v, %v", rows[0].Values[0], rows[1].Values[0])
	}
	if rows[0].Values[1] != 1.0 || rows[1].Values[1] != 0.0 {
		t.Fatalf("util windows = %v, %v", rows[0].Values[1], rows[1].Values[1])
	}
	if rows[0].Values[2] != 9 || rows[1].Values[2] != 19 {
		t.Fatalf("gauge samples = %v, %v", rows[0].Values[2], rows[1].Values[2])
	}
}

// Reset drops rows and re-baselines deltas, so post-reset windows do
// not absorb pre-reset history (the warmup discard).
func TestSamplerReset(t *testing.T) {
	reg := &Registry{}
	c := reg.Counter("events", Labels{})
	s := NewSampler(reg, 5)
	c.Add(100)
	s.OnCycle(4, 0)
	s.Reset()
	if len(s.Samples()) != 0 {
		t.Fatal("samples survived reset")
	}
	c.Add(3)
	s.OnCycle(9, 0)
	rows := s.Samples()
	if len(rows) != 1 || rows[0].Values[0] != 3 {
		t.Fatalf("post-reset window = %v, want [3]", rows)
	}
	// Registry.Reset rebases the series below the sampler's baseline;
	// the next window must difference against the reset state, not go
	// negative silently — the runner always resets both together.
	reg.Reset()
	s.Reset()
	c.Add(2)
	s.OnCycle(14, 0)
	rows = s.Samples()
	if len(rows) != 1 || rows[0].Values[0] != 2 {
		t.Fatalf("window after joint reset = %v, want [2]", rows)
	}
}

func TestExporters(t *testing.T) {
	reg := &Registry{}
	c := reg.Counter("turns", Labels{Node: "router0"})
	var clock, u int64
	reg.Ratio("link_util", Labels{Link: "L0"}, sim.LinkGroup{Clock: &clock, Busy: []*int64{&u}})
	c.Add(4)
	u++
	clock += 2

	s := NewSampler(reg, 2)
	c.Add(1)
	u++
	clock += 2
	s.OnCycle(1, 0)

	var csv strings.Builder
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	wantCSV := "tick,turns{node=router0},link_util{link=L0}\n1,1,0.5\n"
	if csv.String() != wantCSV {
		t.Fatalf("csv:\n%s\nwant:\n%s", csv.String(), wantCSV)
	}

	var jsonl strings.Builder
	if err := s.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{"tick":1,"values":{"link_util{link=L0}":0.5,"turns{node=router0}":1}}` + "\n"
	if jsonl.String() != wantJSON {
		t.Fatalf("jsonl:\n%s\nwant:\n%s", jsonl.String(), wantJSON)
	}

	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	wantText := "# TYPE turns counter\n" +
		`turns{node="router0"} 5` + "\n" +
		"# TYPE link_util gauge\n" +
		`link_util{link="L0"} 0.5` + "\n"
	if text.String() != wantText {
		t.Fatalf("text:\n%s\nwant:\n%s", text.String(), wantText)
	}
}
