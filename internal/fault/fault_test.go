package fault

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseExplicitEvents(t *testing.T) {
	p, err := Parse("stutter@1000+200:node=3;slowdown@500+100:node=0,factor=4;degrade@0+50:node=5,port=1,factor=2")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: LinkStutter, Node: 3, Start: 1000, Duration: 200},
		{Kind: NodeSlowdown, Node: 0, Start: 500, Duration: 100, Factor: 4},
		{Kind: PortDegrade, Node: 5, Port: 1, Start: 0, Duration: 50, Factor: 2},
	}
	if !reflect.DeepEqual(p.Events, want) {
		t.Fatalf("events = %+v, want %+v", p.Events, want)
	}
}

func TestParseRand(t *testing.T) {
	p, err := Parse("rand:events=8,seed=42,horizon=10000,mean-dur=32,max-factor=3")
	if err != nil {
		t.Fatal(err)
	}
	want := &GenSpec{Seed: 42, Events: 8, Horizon: 10000, MeanDuration: 32, MaxFactor: 3}
	if !reflect.DeepEqual(p.Gen, want) {
		t.Fatalf("gen = %+v, want %+v", p.Gen, want)
	}
}

func TestParseNone(t *testing.T) {
	p, err := Parse("none")
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || !p.Empty() {
		t.Fatalf("none should yield an empty non-nil plan, got %+v", p)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"melt@0+10:node=1",                     // unknown kind
		"stutter@0+10",                         // missing node
		"stutter@0:node=1",                     // missing duration
		"stutter@0+10:node=1,x=2",              // unknown key
		"rand:seed=1",                          // missing events
		"rand:events=4",                        // missing horizon
		"rand:events=4,horizon=1,max-factor=1", // factor < 2
		"stutter@0+10:node=a",                  // non-integer
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		"stutter@1000+200:node=3",
		"slowdown@500+100:node=0,factor=4",
		"degrade@0+50:node=5,port=1,factor=2",
		"stutter@1+2:node=0;rand:events=3,seed=7,horizon=500",
		"none",
	} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		p2, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", p.String(), err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Errorf("round trip of %q lost information: %+v vs %+v", s, p, p2)
		}
	}
}

func TestMaterializeDeterministic(t *testing.T) {
	p, err := Parse("stutter@9+1:node=2;rand:events=16,seed=99,horizon=5000")
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Materialize(24, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Materialize(24, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same plan materialized differently across calls")
	}
	if len(a) != 17 {
		t.Fatalf("%d events, want 17", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Start > a[i].Start {
			t.Fatalf("schedule not sorted: %v before %v", a[i-1], a[i])
		}
	}
	for _, e := range a {
		if err := e.Validate(24, 4); err != nil {
			t.Errorf("generated event invalid: %v", err)
		}
	}
	// A different seed must give a different schedule.
	p.Gen.Seed = 100
	c, err := p.Materialize(24, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestMaterializeValidates(t *testing.T) {
	p := &Plan{Events: []Event{{Kind: LinkStutter, Node: 99, Start: 0, Duration: 1}}}
	if _, err := p.Materialize(4, 1); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range node accepted: %v", err)
	}
	p = &Plan{Events: []Event{{Kind: PortDegrade, Node: 0, Port: 7, Start: 0, Duration: 1, Factor: 2}}}
	if _, err := p.Materialize(4, 4); err == nil || !strings.Contains(err.Error(), "port") {
		t.Fatalf("out-of-range port accepted: %v", err)
	}
	p = &Plan{Events: []Event{{Kind: NodeSlowdown, Node: 0, Start: 0, Duration: 5, Factor: 1}}}
	if _, err := p.Materialize(4, 1); err == nil || !strings.Contains(err.Error(), "factor") {
		t.Fatalf("factor 1 accepted: %v", err)
	}
}

func TestEmpty(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Fatal("nil plan should be empty")
	}
	if !(&Plan{}).Empty() {
		t.Fatal("zero plan should be empty")
	}
	if (&Plan{Events: []Event{{Kind: LinkStutter, Node: 0, Duration: 1}}}).Empty() {
		t.Fatal("plan with events should not be empty")
	}
	if (&Plan{Gen: &GenSpec{Events: 2, Horizon: 10}}).Empty() {
		t.Fatal("plan with generator should not be empty")
	}
	ev, err := nilPlan.Materialize(4, 1)
	if err != nil || len(ev) != 0 {
		t.Fatalf("nil plan materialize = %v, %v", ev, err)
	}
}
