package fault

// Scheduled is one materialized event bound to its model-specific
// application (set a station's fault state, degrade a router port).
type Scheduled struct {
	// At is the engine tick the event fires (already scaled by the
	// model's ticks-per-cycle factor).
	At int64
	// Apply installs the fault on its target.
	Apply func()
}

// Driver walks a sorted fault schedule with an O(1)-amortized cursor.
// Models call Step at the top of their compute phase; a run whose
// schedule is exhausted (or empty) pays one pointer-nil check per
// tick, preserving the zero-cost-when-disabled contract.
type Driver struct {
	sched  []Scheduled
	cursor int
}

// NewDriver wraps a schedule sorted by At (as Plan.Materialize
// returns it). Returns nil for an empty schedule so callers can keep
// a nil driver on the zero-fault path.
func NewDriver(sched []Scheduled) *Driver {
	if len(sched) == 0 {
		return nil
	}
	return &Driver{sched: sched}
}

// Step applies every event due at or before now.
func (d *Driver) Step(now int64) {
	for d.cursor < len(d.sched) && d.sched[d.cursor].At <= now {
		d.sched[d.cursor].Apply()
		d.cursor++
	}
}

// Applied returns how many events have fired so far (the models
// export it as fault_events_total).
func (d *Driver) Applied() int64 { return int64(d.cursor) }

// SlowFactor maps an event to the per-target slowdown state: 0 means
// the link is dead (LinkStutter), k >= 2 means act every k-th
// opportunity.
func SlowFactor(e Event) int64 {
	if e.Kind == LinkStutter {
		return 0
	}
	return int64(e.Factor)
}
