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

// TestParseBounds pins the model-independent bounds Parse enforces, so
// that no accepted plan can exhaust memory or overflow a window: each
// refused plan's error names what is wrong, and each plan at the bound
// is accepted.
func TestParseBounds(t *testing.T) {
	for _, tc := range []struct{ in, why string }{
		{"rand:events=65537,seed=1,horizon=10", "events"},
		{"rand:events=1000000000000,seed=1,horizon=10", "events"},
		{"rand:events=1,seed=1,horizon=10,mean-dur=4611686018427387904", "mean-dur"},
		{"rand:events=1,seed=1,horizon=9223372036854775807", "mean-dur"},
		{"stutter@1+9223372036854775807:node=0", "start+duration"},
		{"slowdown@9223372036854775807+1:node=2", "start+duration"},
		{"stutter@600+2000:node=0,factor=4", "stutter takes no factor="},
		{"stutter@600+2000:node=0,port=1", "stutter takes no port="},
		{"slowdown@600+2000:node=0,port=1,factor=2", "slowdown takes no port="},
	} {
		_, err := Parse(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("Parse(%q) = %v, want an error naming %q", tc.in, err, tc.why)
		}
	}
	for _, in := range []string{
		"rand:events=65536,seed=1,horizon=10",
		"rand:events=1,seed=1,horizon=10,mean-dur=4611686018427387899",
		"stutter@0+9223372036854775807:node=0",
		"degrade@0+10:node=0,port=1,factor=3",
	} {
		p, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if _, err := p.Materialize(12, 4); err != nil {
			t.Errorf("Materialize(%q): %v", in, err)
		}
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"stutter@1000+200:node=3", "stutter@1000+200:node=3"},
		{"slowdown@500+100:node=0,factor=4", "slowdown@500+100:node=0,factor=4"},
		{"degrade@0+50:node=5,port=1,factor=2", "degrade@0+50:node=5,port=1,factor=2"},
		{"slowdown@5+1:node=2", "slowdown@5+1:node=2,factor=2"},
		{"stutter@1+2:node=0;rand:events=3,seed=7,horizon=500",
			"stutter@1+2:node=0;rand:events=3,seed=7,horizon=500,mean-dur=64,max-factor=4"},
		{"none", ""},
		{"none;none", ""},
	} {
		p, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if got := p.Canonical(); got != tc.want {
			t.Errorf("Canonical(%q) = %q, want %q", tc.in, got, tc.want)
		}
		if tc.want == "" {
			continue
		}
		p2, err := Parse(tc.want)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", tc.want, err)
		}
		if got := p2.Canonical(); got != tc.want {
			t.Errorf("Canonical(%q) = %q: not a fixed point", tc.want, got)
		}
	}
	if got := (&Plan{Gen: &GenSpec{Seed: 3, Horizon: 10}}).Canonical(); got != "" {
		t.Errorf("zero-event generator renders %q, want empty", got)
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

// TestScheduleInstallsGates pins the port rule, the windows in PM
// cycles and later-start-wins overlap on a four-link target with an
// ejection port.
func TestScheduleInstallsGates(t *testing.T) {
	p, err := Parse("stutter@1+4:node=0;slowdown@2+1:node=1,factor=3;degrade@3+5:node=0,port=2,factor=2")
	if err != nil {
		t.Fatal(err)
	}
	var slots [2]*Gates
	s, err := NewSchedule(p, Targets{Slots: []**Gates{&slots[0], &slots[1]}, Links: 4, Eject: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Step(0)
	if slots[0] != nil || s.Applied() != 0 {
		t.Fatal("an event fired before its start")
	}
	s.Step(3)
	if s.Applied() != 3 {
		t.Fatalf("applied %d events by cycle 3, want 3", s.Applied())
	}
	for port, want := range []string{"dead", "dead", "slowed x2", "dead", ""} {
		g := slots[0].Port(port)
		if got := g.Active(3); got != (want != "") {
			t.Fatalf("node 0 port %d active = %v, want %q", port, got, want)
		}
		if want != "" && !strings.Contains(g.Describe("n0", "output"), want) {
			t.Errorf("node 0 port %d: %s, want %s", port, g.Describe("n0", "output"), want)
		}
	}
	if !slots[0].Port(0).Blocked(4, 4) || slots[0].Port(0).Blocked(5, 5) {
		t.Error("stutter window is not [1, 5)")
	}
	if g := slots[0].Port(2); !g.Blocked(3, 1) || g.Blocked(3, 2) || g.Blocked(8, 1) {
		t.Error("degrade does not act on every 2nd cycle until cycle 8")
	}
	for port := 0; port < 5; port++ {
		if g := slots[1].Port(port); !g.Active(2) || g.Dead(2) || g.Active(3) {
			t.Errorf("slowdown on node 1 port %d is not a slowed window [2, 3)", port)
		}
	}
	var none *Gates
	if none.Port(0).Active(0) || none.Port(0).Dead(0) {
		t.Error("a target no event reached reports a fault")
	}
}
