package sim

import (
	"testing"
)

// tickShard is a minimal Shard that counts its computes, so the tests
// below isolate the engine's dispatch and barrier cost from any model
// work.
type tickShard struct{ computes int64 }

func (s *tickShard) Compute(now int64) { s.computes++ }

// countComp is a registered component that counts its phases and
// reports one progress event per commit.
type countComp struct {
	e                 *Engine
	computes, commits int64
}

func (c *countComp) Compute(int64) { c.computes++ }
func (c *countComp) Commit(int64)  { c.commits++; c.e.Progress() }

// parallelEngine builds an engine with one registered component and
// nShards trivial shards on workers workers.
func parallelEngine(workers, nShards int) (*Engine, *countComp, []*tickShard) {
	e := &Engine{}
	comp := &countComp{e: e}
	e.Register(comp, 1)
	shards := make([]*tickShard, nShards)
	plan := &ParallelPlan{Workers: workers}
	for i := range shards {
		shards[i] = &tickShard{}
		plan.Shards = append(plan.Shards, shards[i])
	}
	e.SetParallel(plan)
	return e, comp, shards
}

func TestSetParallelDegeneratePlansStaySerial(t *testing.T) {
	cases := []struct {
		name string
		plan *ParallelPlan
	}{
		{"nil plan", nil},
		{"one worker", &ParallelPlan{Workers: 1, Shards: make([]Shard, 4)}},
		{"one shard", &ParallelPlan{Workers: 4, Shards: make([]Shard, 1)}},
	}
	for _, tc := range cases {
		var e Engine
		e.SetParallel(tc.plan)
		if e.Parallel() {
			t.Errorf("%s: engine went parallel", tc.name)
		}
	}
}

func TestParallelClampsWorkersToShards(t *testing.T) {
	e, _, _ := parallelEngine(16, 3)
	defer e.CloseWorkers()
	if got := e.plan.Workers; got != 3 {
		t.Fatalf("Workers = %d after clamp; want 3", got)
	}
}

// TestParallelRunsEveryShardEveryPhase pins the parallel tick: every
// shard computes once a tick, and the registered components commit
// once a tick and never compute (the shards stand in for their
// Compute), with their progress reaching the per-cycle hook.
func TestParallelRunsEveryShardEveryPhase(t *testing.T) {
	const ticks = 100
	e, comp, shards := parallelEngine(2, 4)
	defer e.CloseWorkers()
	var hooked, moved uint64
	e.OnCycle = func(now int64, m uint64) {
		if now != int64(hooked) {
			t.Errorf("OnCycle saw tick %d, want %d", now, hooked)
		}
		hooked++
		moved += m
	}
	if err := e.Run(ticks); err != nil {
		t.Fatal(err)
	}
	for i, s := range shards {
		if s.computes != ticks {
			t.Errorf("shard %d: %d computes, want %d", i, s.computes, ticks)
		}
	}
	if comp.computes != 0 || comp.commits != ticks {
		t.Errorf("registered component: %d computes, %d commits; want 0, %d",
			comp.computes, comp.commits, ticks)
	}
	if hooked != ticks || moved != ticks {
		t.Errorf("OnCycle ran %d times with %d moves; want %d, %d", hooked, moved, ticks, ticks)
	}
	if e.Now() != ticks {
		t.Errorf("Now = %d, want %d", e.Now(), ticks)
	}
}

// TestSerialStepAllocationFree pins the serial hot tick path at zero
// allocations: Step is called hundreds of millions of times per run,
// and any per-tick allocation would dominate the profile.
func TestSerialStepAllocationFree(t *testing.T) {
	var e Engine
	for i := 0; i < 64; i++ {
		e.Register(&componentFunc{}, 1)
	}
	e.Step() // let Register's group building settle
	if avg := testing.AllocsPerRun(200, e.Step); avg != 0 {
		t.Fatalf("serial Step allocates %.2f objects/tick; want 0", avg)
	}
}

// TestParallelRunAllocationBound pins the parallel hot tick path:
// after the worker gang exists, a Run's allocations are per-dispatch
// (the gang body closure), not per-tick. The bound is deliberately
// loose — 0.1 objects per tick amortized — because the race detector
// and the runtime's own bookkeeping add noise; the failure mode being
// guarded is an accidental per-tick allocation (1.0+ per tick).
func TestParallelRunAllocationBound(t *testing.T) {
	const ticks = 500
	e, _, _ := parallelEngine(4, 8)
	defer e.CloseWorkers()
	if err := e.Run(ticks); err != nil { // warm up: create the gang
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if err := e.Run(ticks); err != nil {
			t.Fatal(err)
		}
	})
	if perTick := avg / ticks; perTick > 0.1 {
		t.Fatalf("parallel Run allocates %.3f objects/tick amortized; want <= 0.1", perTick)
	}
}

// panicShard panics in its Compute on the requested tick.
type panicShard struct {
	tickShard
	at int64
}

func (s *panicShard) Compute(now int64) {
	if now == s.at {
		panic("panicShard: boom")
	}
	s.tickShard.Compute(now)
}

// TestParallelPanicReachesCaller pins the panic contract: a panic on
// any worker winds the gang down and re-raises on the caller's
// goroutine, where core's usual recovery path expects it. The
// panicking shard is on worker 1, so the panic crosses goroutines, and
// the tick it panics in is never committed.
func TestParallelPanicReachesCaller(t *testing.T) {
	e := &Engine{}
	comp := &countComp{e: e}
	e.Register(comp, 1)
	e.SetParallel(&ParallelPlan{Workers: 2, Shards: []Shard{&tickShard{}, &panicShard{at: 10}}})
	defer e.CloseWorkers()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("worker panic did not propagate to the caller")
		}
		if comp.commits != 10 {
			t.Errorf("%d ticks committed before the panic at tick 10; want 10", comp.commits)
		}
	}()
	_ = e.Run(100)
	t.Fatal("Run returned normally past a panicking shard")
}
