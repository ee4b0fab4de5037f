// Package sim provides the synchronous, two-phase cycle engine that
// drives the flit-level network models.
//
// The paper's simulator works at the register-transfer level on a
// cycle-by-cycle basis: every network node moves at most one flit per
// link per clock. We reproduce that with a compute/commit discipline —
// each tick, every component first stages its transfer decisions from
// start-of-tick state (Compute), then all components apply them
// (Commit). This gives every sender a consistent, same-cycle view of
// receiver buffer occupancy (the idealized flow-control signal of the
// paper) and makes results independent of component registration
// order.
//
// A component may act at a period: with period k it acts every k-th
// tick. Components are bucketed by period at registration time, so the
// hot loop pays one divisibility check per distinct period and phase
// instead of one per component — and none at all on the uniform fast
// path (every period 1, which is every system: a tick is one PM cycle,
// and a double-speed global ring takes its second step inside the ring
// model).
package sim

import (
	"fmt"

	"ringmesh/internal/obs"
	"ringmesh/internal/pool"
)

// Component is one synchronously clocked piece of the system (a
// network, a set of processing modules).
//
// Under the engine's parallel mode (see SetParallel) a model's Compute
// is replaced by shards that run on different goroutines, while every
// Commit still runs on one goroutine in registration order.
type Component interface {
	// Compute stages this tick's transfers using only start-of-tick
	// state. It must not mutate state visible to other components.
	Compute(now int64)
	// Commit applies the staged transfers.
	Commit(now int64)
}

// LinkGroup is one named set of a network's links: a ring level ("L0"
// = global) or a mesh direction ("north"), bound links only. Busy[i]
// points at link i's count of the flits it carried, a plain integer
// its model adds to in the tick and never resets. Every link of a
// group counts against Clock, the cycle count its model keeps once for
// them all, so a tick of Clock offers each link one cycle of capacity.
// The runner reads a model's groups once, marks them at the warmup
// discard, exports each as <family>_link_util and folds them into the
// Result.
type LinkGroup struct {
	Label string
	Clock *int64
	Busy  []*int64
}

// LinkMark is a reading of a group's counters, the base its
// utilization counts from.
type LinkMark struct{ busy, clock int64 }

// Mark reads g's counters now.
func (g LinkGroup) Mark() LinkMark {
	m := LinkMark{clock: *g.Clock}
	for _, b := range g.Busy {
		m.busy += *b
	}
	return m
}

// Since returns the flits g's links carried since mark m and the
// link-cycles they offered.
func (g LinkGroup) Since(m LinkMark) (busy, capacity int64) {
	now := g.Mark()
	return now.busy - m.busy, int64(len(g.Busy)) * (now.clock - m.clock)
}

// Utilization returns busy/capacity, or 0 when no capacity was offered.
func Utilization(busy, capacity int64) float64 {
	if capacity == 0 {
		return 0
	}
	return float64(busy) / float64(capacity)
}

// schedule groups the components sharing one clock period. Groups are
// kept in first-seen order; within a group, registration order.
type schedule struct {
	period int64
	comps  []Component
}

// Engine runs registered components in lockstep.
type Engine struct {
	flat   []Component // every component in registration order (fast path)
	groups []schedule  // components bucketed by period (mixed-rate path)
	mixed  bool        // true once any period > 1 is registered
	now    int64

	// progress counts flit movements (and any other forward progress)
	// reported by components; the watchdog uses it to detect
	// deadlock/livelock.
	progress     uint64
	lastProgress uint64
	lastMoveTick int64

	// WatchdogTicks is the number of consecutive ticks without any
	// reported progress — while packets are known to be in flight —
	// after which Run returns ErrStalled. Zero disables the watchdog.
	WatchdogTicks int64

	// InFlight, when non-nil, reports whether any packet is currently
	// in the system; the watchdog only trips when it returns true.
	InFlight func() bool

	// OnCycle, when non-nil, is called once at the end of every tick
	// with the tick just completed and the number of progress events
	// (flit movements) reported during it. It is the engine-level
	// observability hook: per-cycle metrics (instantaneous load,
	// activity traces) attach here instead of inside the network
	// models.
	OnCycle func(now int64, moved uint64)

	// Diagnose, when non-nil, is invoked once when the watchdog trips
	// to collect a structured snapshot of the stalled system (see
	// StallReport); Run then returns a *StallError carrying it instead
	// of a bare wrapped ErrStalled. A panic inside Diagnose is
	// swallowed and the bare error returned — forensics must never
	// turn a detectable stall into a crash.
	Diagnose func() *StallReport

	// Parallel mode (see parallel.go). When plan is non-nil, Run
	// computes the plan's shards on a worker gang instead of the
	// registered components, then commits the registered components.
	plan *ParallelPlan
	gang *pool.Gang

	// phaseStats, when non-nil (EnablePhaseStats), accumulates per-shard
	// compute durations, the serial commit's duration and per-worker
	// barrier waits during parallel runs. Observation-only; nil keeps
	// the hot loop untimed.
	phaseStats *obs.PhaseStats
}

// ErrStalled is returned by Run when the watchdog detects that no
// flit has moved for WatchdogTicks ticks while packets are in flight —
// the signature of a routing deadlock or a flow-control livelock.
var ErrStalled = fmt.Errorf("sim: no progress (deadlock or livelock)")

// Register adds a component with a clock period in ticks (1 = every
// tick). Thanks to the two-phase discipline, results do not depend on
// registration order among components of one period; across periods
// the engine preserves first-seen group order, then registration
// order within a group.
func (e *Engine) Register(c Component, period int64) {
	if period < 1 {
		panic("sim: period must be >= 1")
	}
	e.flat = append(e.flat, c)
	if period > 1 {
		e.mixed = true
	}
	for i := range e.groups {
		if e.groups[i].period == period {
			e.groups[i].comps = append(e.groups[i].comps, c)
			return
		}
	}
	e.groups = append(e.groups, schedule{period: period, comps: []Component{c}})
}

// Now returns the current tick.
func (e *Engine) Now() int64 { return e.now }

// Progress is called by components whenever they move a flit (or make
// any other kind of forward progress the watchdog should count), from
// Commit: on either schedule that runs on one goroutine.
func (e *Engine) Progress() { e.progress++ }

// ProgressN reports n progress events at once. Components that move
// many flits per commit batch their reporting through this instead of
// one Progress call per flit.
func (e *Engine) ProgressN(n int) { e.progress += uint64(n) }

// Step advances the simulation one tick.
func (e *Engine) Step() {
	now := e.now
	if !e.mixed {
		// Uniform fast path: every component runs every tick; no
		// divisibility checks, no group indirection.
		for _, c := range e.flat {
			c.Compute(now)
		}
	} else {
		for i := range e.groups {
			if g := &e.groups[i]; now%g.period == 0 {
				for _, c := range g.comps {
					c.Compute(now)
				}
			}
		}
	}
	e.commit(now)
}

// commit runs the Commit of every component due at tick now and closes
// the tick: watchdog bookkeeping, the tick increment and the per-cycle
// hook. Both schedules end every tick here.
func (e *Engine) commit(now int64) {
	before := e.progress
	if !e.mixed {
		for _, c := range e.flat {
			c.Commit(now)
		}
	} else {
		for i := range e.groups {
			if g := &e.groups[i]; now%g.period == 0 {
				for _, c := range g.comps {
					c.Commit(now)
				}
			}
		}
	}
	if e.progress != e.lastProgress {
		e.lastProgress = e.progress
		e.lastMoveTick = now
	}
	e.now++
	if e.OnCycle != nil {
		e.OnCycle(now, e.progress-before)
	}
}

// checkWatchdog returns the stall error once WatchdogTicks ticks have
// passed without progress while packets are in flight.
func (e *Engine) checkWatchdog() error {
	if e.WatchdogTicks <= 0 || e.now-e.lastMoveTick <= e.WatchdogTicks {
		return nil
	}
	if e.InFlight == nil || e.InFlight() {
		if rep := e.diagnose(); rep != nil {
			rep.Tick = e.now
			return &StallError{Tick: e.now, Report: rep}
		}
		return fmt.Errorf("%w at tick %d", ErrStalled, e.now)
	}
	// Idle (no packets anywhere) is fine; reset the clock so we don't
	// re-check every tick.
	e.lastMoveTick = e.now
	return nil
}

// Run advances the simulation by ticks ticks, checking the watchdog.
// With a parallel plan installed (SetParallel) the ticks compute on
// the worker gang; otherwise the serial path below runs.
func (e *Engine) Run(ticks int64) error {
	if e.plan != nil {
		return e.runParallel(ticks)
	}
	end := e.now + ticks
	for e.now < end {
		e.Step()
		if err := e.checkWatchdog(); err != nil {
			return err
		}
	}
	return nil
}

// diagnose runs the Diagnose hook with panic protection: a model whose
// forensic walker trips over the very inconsistency that caused the
// stall must still surface the stall, just without the report.
func (e *Engine) diagnose() (rep *StallReport) {
	if e.Diagnose == nil {
		return nil
	}
	defer func() {
		if recover() != nil {
			rep = nil
		}
	}()
	return e.Diagnose()
}
