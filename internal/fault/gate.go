package fault

import "fmt"

// Gate is one output's installed fault. Blocked is the one rule every
// network model asks before an output acts; DESIGN §6 tabulates which
// outputs each kind touches and which cycle index each family passes.
type Gate struct {
	until  int64 // first PM cycle the gate no longer applies
	factor int64 // 0: the output is dead; k >= 2: it acts on every k-th cycle
}

// Blocked reports whether the output may not act at PM cycle now,
// cycle being the index of the output's own clock cycle in progress.
func (g *Gate) Blocked(now, cycle int64) bool {
	return now < g.until && (g.factor == 0 || cycle%g.factor != 0)
}

// Active reports whether a fault holds the output at now (nil-safe).
func (g *Gate) Active(now int64) bool { return g != nil && now < g.until }

// Dead reports whether the output is dead at PM cycle now (nil-safe).
func (g *Gate) Dead(now int64) bool { return g.Active(now) && g.factor == 0 }

// Describe renders an active gate for a stall report: who names the
// output, and noun is what a dead gate reports dead.
func (g *Gate) Describe(who, noun string) string {
	if g.factor == 0 {
		return fmt.Sprintf("%s: %s dead until tick %d", who, noun, g.until)
	}
	return fmt.Sprintf("%s: slowed x%d until tick %d", who, g.factor, g.until)
}

// Gates is one target's gates, one per output: its links first, then
// its ejection output if it has one (a mesh router's four links and
// Local port fill all five). A model keeps one *Gates per target, nil
// until an event reaches it, so a fault-free run pays one nil check per
// compute.
type Gates [5]Gate

// Port returns output p's gate, nil when no event reached the target.
func (g *Gates) Port(p int) *Gate {
	if g == nil {
		return nil
	}
	return &g[p]
}

// Targets is what a model hands a schedule, once: where its targets
// keep their gates and which outputs they have.
type Targets struct {
	// Slots are the targets' fault fields, indexed by an event's Node.
	Slots []**Gates
	// Links is the number of link outputs per target, the range of a
	// degrade's Port: 1 for a ring station, 4 for a mesh router.
	Links int
	// Eject gives each target an ejection output after its links.
	Eject bool
}

// ports returns the outputs [lo, hi) event e touches: a stutter every
// link, a slowdown every output including ejection, a degrade its Port.
func (t Targets) ports(e Event) (lo, hi int) {
	switch {
	case e.Kind == PortDegrade:
		return e.Port, e.Port + 1
	case e.Kind == NodeSlowdown && t.Eject:
		return 0, t.Links + 1
	}
	return 0, t.Links
}

// Schedule is a plan materialized over a model's targets. The assembly
// layer steps it before every network compute.
type Schedule struct {
	events []Event // sorted by Start
	t      Targets
	next   int
}

// NewSchedule materializes p over t. It returns nil when p schedules
// nothing, so an empty plan runs exactly like no plan.
func NewSchedule(p *Plan, t Targets) (*Schedule, error) {
	events, err := p.Materialize(len(t.Slots), t.Links)
	if err != nil || len(events) == 0 {
		return nil, err
	}
	return &Schedule{events: events, t: t}, nil
}

// Step installs the gates of every event due at or before PM cycle now. A
// later event overwrites the gates of the outputs it touches.
func (s *Schedule) Step(now int64) {
	for ; s.next < len(s.events) && s.events[s.next].Start <= now; s.next++ {
		e := s.events[s.next]
		gate := Gate{until: e.End()}
		if e.Kind != LinkStutter {
			gate.factor = int64(e.Factor)
		}
		slot := s.t.Slots[e.Node]
		if *slot == nil {
			*slot = new(Gates)
		}
		lo, hi := s.t.ports(e)
		for p := lo; p < hi; p++ {
			(*slot)[p] = gate
		}
	}
}

// Applied returns how many events have fired so far, the
// fault_events_total counter.
func (s *Schedule) Applied() int64 { return int64(s.next) }
