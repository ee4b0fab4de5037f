package fault

import (
	"testing"
)

// FuzzParse holds the plan-DSL parser to its contract: arbitrary input
// must produce a plan or an error — never a panic — and the canonical
// rendering CacheKey hashes must be a fixed point: rendering an
// accepted plan, parsing that and rendering again gives the same
// string, a plan that schedules nothing renders empty, and every
// accepted plan materializes over 12 targets of 4 ports without a
// panic.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"none",
		"",
		";;",
		"stutter@1000+200:node=3",
		"slowdown@500+1000:node=0,factor=4",
		"degrade@0+300:node=5,port=1,factor=2",
		"stutter@1+2:node=0;slowdown@3+4:node=1;none",
		"rand:events=8,seed=42,horizon=10000",
		"rand:events=2,seed=7,horizon=100,mean-dur=5,max-factor=3",
		"stutter@-5+-7:node=-1",
		"slowdown@9223372036854775807+1:node=2",
		"stutter@1+2:node=0,node=1,factor=0",
		"rand:events=0,seed=0,horizon=0",
		"bogus@1+2:node=0",
		"stutter@@+:node",
		"rand:rand:rand",
		"stutter@1+2:node=0;rand:events=1,seed=1,horizon=9;rand:events=2,seed=2,horizon=9",
		"stutter@600+2000:node=0,factor=4",
		"rand:events=1,seed=1,horizon=10,mean-dur=4611686018427387904",
		"rand:events=1000000000000,seed=1,horizon=10",
		"stutter@1+9223372036854775807:node=0",
	} {
		f.Add(seed)
	}
	none, err := Parse("none")
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []*Plan{none, {Gen: &GenSpec{Seed: 9, Horizon: 2000}}} {
		if got := p.Canonical(); got != "" {
			f.Fatalf("plan %+v schedules nothing but renders %q", p, got)
		}
	}
	f.Fuzz(func(t *testing.T, input string) {
		p, err := Parse(input) // must never panic
		if err != nil {
			return
		}
		if p == nil {
			t.Fatalf("Parse(%q) = nil plan, nil error", input)
		}
		norm := p.Canonical()
		if (norm == "") != p.Empty() {
			t.Fatalf("Parse(%q): Canonical %q, Empty %v", input, norm, p.Empty())
		}
		if norm == "" {
			return
		}
		p2, err := Parse(norm)
		if err != nil {
			t.Fatalf("Parse(%q) ok but its rendering %q does not re-parse: %v", input, norm, err)
		}
		if got := p2.Canonical(); got != norm {
			t.Fatalf("canonical rendering unstable: %q -> %q -> %q", input, norm, got)
		}
		// Every accepted plan materializes without a panic.
		if events, err := p.Materialize(12, 4); err == nil {
			for _, e := range events {
				if e.End() < e.Start {
					t.Fatalf("Parse(%q): event %s ends before it starts", input, e)
				}
			}
		}
	})
}
