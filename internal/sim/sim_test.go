package sim

import (
	"errors"
	"testing"
)

// recorder logs the ticks at which it computes/commits.
type recorder struct {
	engine   *Engine
	computes []int64
	commits  []int64
	moves    bool
}

func (r *recorder) Compute(now int64) { r.computes = append(r.computes, now) }
func (r *recorder) Commit(now int64) {
	r.commits = append(r.commits, now)
	if r.moves {
		r.engine.Progress()
	}
}

func TestStepOrdering(t *testing.T) {
	var e Engine
	a := &recorder{engine: &e}
	b := &recorder{engine: &e}
	e.Register(a, 1)
	e.Register(b, 1)
	e.Step()
	e.Step()
	if len(a.computes) != 2 || len(b.commits) != 2 {
		t.Fatalf("components not stepped: %v %v", a.computes, b.commits)
	}
	if a.computes[0] != 0 || a.computes[1] != 1 {
		t.Fatalf("compute ticks = %v", a.computes)
	}
	if e.Now() != 2 {
		t.Fatalf("Now = %d", e.Now())
	}
}

// phaseChecker asserts that all Computes of a tick happen before any
// Commit of that tick by recording the last tick each phase ran.
type phaseChecker struct {
	t       *testing.T
	shared  *map[int64]int // tick -> number of computes seen
	total   int
	commits int
}

func (p *phaseChecker) Compute(now int64) { (*p.shared)[now]++ }
func (p *phaseChecker) Commit(now int64) {
	if (*p.shared)[now] != p.total {
		p.t.Fatalf("commit at tick %d saw only %d/%d computes",
			now, (*p.shared)[now], p.total)
	}
	p.commits++
}

func TestTwoPhaseDiscipline(t *testing.T) {
	var e Engine
	seen := map[int64]int{}
	a := &phaseChecker{t: t, shared: &seen, total: 2}
	b := &phaseChecker{t: t, shared: &seen, total: 2}
	e.Register(a, 1)
	e.Register(b, 1)
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if a.commits != 5 || b.commits != 5 {
		t.Fatalf("commits = %d/%d", a.commits, b.commits)
	}
}

func TestClockDividers(t *testing.T) {
	var e Engine
	fast := &recorder{engine: &e}
	slow := &recorder{engine: &e}
	e.Register(fast, 1)
	e.Register(slow, 2)
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if len(fast.computes) != 10 {
		t.Fatalf("fast computed %d times", len(fast.computes))
	}
	if len(slow.computes) != 5 {
		t.Fatalf("slow computed %d times, want 5", len(slow.computes))
	}
	for _, tick := range slow.computes {
		if tick%2 != 0 {
			t.Fatalf("slow component ran at odd tick %d", tick)
		}
	}
}

func TestRegisterBadPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("period 0 accepted")
		}
	}()
	var e Engine
	e.Register(&recorder{engine: &e}, 0)
}

func TestWatchdogTrips(t *testing.T) {
	var e Engine
	stuck := &recorder{engine: &e, moves: false}
	e.Register(stuck, 1)
	e.WatchdogTicks = 10
	e.InFlight = func() bool { return true }
	err := e.Run(100)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("watchdog did not trip: %v", err)
	}
}

func TestWatchdogQuietWhenIdle(t *testing.T) {
	var e Engine
	idle := &recorder{engine: &e, moves: false}
	e.Register(idle, 1)
	e.WatchdogTicks = 10
	e.InFlight = func() bool { return false }
	if err := e.Run(100); err != nil {
		t.Fatalf("watchdog tripped on idle system: %v", err)
	}
}

func TestWatchdogQuietWhenProgressing(t *testing.T) {
	var e Engine
	busy := &recorder{engine: &e, moves: true}
	e.Register(busy, 1)
	e.WatchdogTicks = 5
	e.InFlight = func() bool { return true }
	if err := e.Run(100); err != nil {
		t.Fatalf("watchdog tripped on progressing system: %v", err)
	}
}

func TestWatchdogDisabled(t *testing.T) {
	var e Engine
	stuck := &recorder{engine: &e, moves: false}
	e.Register(stuck, 1)
	e.InFlight = func() bool { return true }
	if err := e.Run(1000); err != nil {
		t.Fatalf("disabled watchdog returned error: %v", err)
	}
}

func TestRunAdvancesExactly(t *testing.T) {
	var e Engine
	r := &recorder{engine: &e, moves: true}
	e.Register(r, 1)
	if err := e.Run(7); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 7 || len(r.commits) != 7 {
		t.Fatalf("Now=%d commits=%d", e.Now(), len(r.commits))
	}
}

func TestMixedPeriodGrouping(t *testing.T) {
	var e Engine
	fast := &recorder{engine: &e}
	slow := &recorder{engine: &e}
	third := &recorder{engine: &e}
	e.Register(fast, 1)
	e.Register(slow, 2)
	e.Register(third, 3)
	for i := 0; i < 12; i++ {
		e.Step()
	}
	if len(fast.computes) != 12 || len(slow.computes) != 6 || len(third.computes) != 4 {
		t.Fatalf("computes = %d/%d/%d, want 12/6/4",
			len(fast.computes), len(slow.computes), len(third.computes))
	}
	for _, tick := range third.computes {
		if tick%3 != 0 {
			t.Fatalf("period-3 component ran at tick %d", tick)
		}
	}
}

func TestProgressN(t *testing.T) {
	var e Engine
	e.ProgressN(3)
	e.Progress()
	e.ProgressN(2)
	if e.progress != 6 {
		t.Fatalf("progress = %d, want 6", e.progress)
	}
}

func TestWatchdogQuietWithBatchedProgress(t *testing.T) {
	var e Engine
	c := &recorder{engine: &e}
	e.Register(c, 1)
	e.WatchdogTicks = 5
	e.InFlight = func() bool { return true }
	// Report progress in batches rather than via Progress(): the
	// watchdog must count it the same way.
	e.OnCycle = func(now int64, moved uint64) {}
	done := 0
	batched := componentFunc{commit: func(now int64) { e.ProgressN(4); done++ }}
	e.Register(&batched, 1)
	if err := e.Run(100); err != nil {
		t.Fatalf("watchdog tripped despite batched progress: %v", err)
	}
	if done != 100 {
		t.Fatalf("batched component committed %d times", done)
	}
}

// componentFunc adapts closures to Component for tests.
type componentFunc struct {
	compute func(now int64)
	commit  func(now int64)
}

func (c *componentFunc) Compute(now int64) {
	if c.compute != nil {
		c.compute(now)
	}
}
func (c *componentFunc) Commit(now int64) {
	if c.commit != nil {
		c.commit(now)
	}
}

func TestOnCycleHook(t *testing.T) {
	var e Engine
	moves := 0
	mover := &componentFunc{commit: func(now int64) {
		if now%2 == 0 {
			e.ProgressN(3)
			moves += 3
		}
	}}
	e.Register(mover, 1)
	var ticks []int64
	var moved []uint64
	e.OnCycle = func(now int64, m uint64) {
		ticks = append(ticks, now)
		moved = append(moved, m)
	}
	for i := 0; i < 4; i++ {
		e.Step()
	}
	if len(ticks) != 4 || ticks[0] != 0 || ticks[3] != 3 {
		t.Fatalf("OnCycle ticks = %v", ticks)
	}
	want := []uint64{3, 0, 3, 0}
	for i := range want {
		if moved[i] != want[i] {
			t.Fatalf("OnCycle moved = %v, want %v", moved, want)
		}
	}
	if moves != 6 {
		t.Fatalf("moves = %d", moves)
	}
}

// TestUniformFastPathEquivalence runs the same component set through a
// uniform engine and a mixed engine whose extra component has period 1
// forced through the grouped path, checking the schedules agree.
func TestUniformFastPathEquivalence(t *testing.T) {
	run := func(forceMixed bool) []int64 {
		var e Engine
		r := &recorder{engine: &e}
		e.Register(r, 1)
		if forceMixed {
			// A period-2 bystander pushes the engine onto the grouped
			// path without touching r's schedule.
			e.Register(&componentFunc{}, 2)
		}
		for i := 0; i < 6; i++ {
			e.Step()
		}
		return r.computes
	}
	fast, grouped := run(false), run(true)
	if len(fast) != len(grouped) {
		t.Fatalf("schedules diverge: %v vs %v", fast, grouped)
	}
	for i := range fast {
		if fast[i] != grouped[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, fast, grouped)
		}
	}
}

// TestOnCycleFiresWhileStalled checks that the observability hook
// keeps firing on ticks with zero movement, up to and including the
// tick where the watchdog trips: a stall is exactly when you want the
// metrics sampler to still be recording.
func TestOnCycleFiresWhileStalled(t *testing.T) {
	var e Engine
	mover := &componentFunc{commit: func(now int64) {
		if now < 3 {
			e.Progress()
		}
	}}
	e.Register(mover, 1)
	e.WatchdogTicks = 4
	e.InFlight = func() bool { return true } // packets "stuck" in flight
	var ticks []int64
	var moved []uint64
	e.OnCycle = func(now int64, m uint64) {
		ticks = append(ticks, now)
		moved = append(moved, m)
	}
	err := e.Run(100)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	// Moves at ticks 0..2, then WatchdogTicks stalled ticks (3..6)
	// until the trip after the Step completing tick 6 (lastMoveTick=2,
	// trip when now-2 > 4).
	if len(ticks) == 0 {
		t.Fatal("OnCycle never fired")
	}
	last := len(ticks) - 1
	if moved[last] != 0 {
		t.Fatalf("final tick %d moved %d flits, want 0 (stalled)", ticks[last], moved[last])
	}
	stalledTicks := 0
	for i, m := range moved {
		if ticks[i] != int64(i) {
			t.Fatalf("hook skipped a tick: ticks=%v", ticks)
		}
		if m == 0 {
			stalledTicks++
		}
	}
	if stalledTicks != int(e.WatchdogTicks) {
		t.Fatalf("hook saw %d zero-movement ticks, want %d (ticks=%v moved=%v)",
			stalledTicks, e.WatchdogTicks, ticks, moved)
	}
}

// A link group's utilization counts from a mark: busy is what its
// links carried since, capacity one cycle per link per tick of the
// shared clock, and the clock keeps running past the mark.
func TestLinkGroupSince(t *testing.T) {
	var clock, a, b int64
	g := LinkGroup{Label: "L0", Clock: &clock, Busy: []*int64{&a, &b}}
	start := g.Mark()
	clock += 10
	a += 4
	b += 6
	if busy, capacity := g.Since(start); busy != 10 || capacity != 20 || Utilization(busy, capacity) != 0.5 {
		t.Fatalf("since start = %d/%d, want 10/20", busy, capacity)
	}
	mark := g.Mark()
	if busy, capacity := g.Since(mark); busy != 0 || capacity != 0 {
		t.Fatalf("at the mark = %d/%d, want 0/0", busy, capacity)
	}
	clock += 5
	a++
	if busy, capacity := g.Since(mark); busy != 1 || capacity != 10 {
		t.Fatalf("since the mark = %d/%d, want 1/10", busy, capacity)
	}
	if a != 5 || b != 6 {
		t.Fatalf("marking touched the counters: %d, %d", a, b)
	}
}

// No capacity reads as zero utilization, never as a 0/0 division, so
// an unticked group merges into a sum as the identity.
func TestUtilizationZeroCapacity(t *testing.T) {
	if u := Utilization(0, 0); u != 0 {
		t.Fatalf("Utilization(0, 0) = %v", u)
	}
	var clock int64
	g := LinkGroup{Clock: &clock}
	if busy, capacity := g.Since(LinkMark{}); busy != 0 || capacity != 0 {
		t.Fatalf("empty group = %d/%d", busy, capacity)
	}
	clock += 7
	if busy, capacity := g.Since(LinkMark{}); busy != 0 || capacity != 0 {
		t.Fatalf("empty group after 7 ticks = %d/%d, want no capacity", busy, capacity)
	}
}
