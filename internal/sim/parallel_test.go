package sim

import (
	"testing"
)

// tickShard is a minimal Shard whose phases each bump a counter, so
// the tests below isolate the engine's dispatch and barrier cost from
// any model work. misordered counts commit calls that were not phase 0
// then phase 1 in turn.
type tickShard struct{ computes, commits, misordered int64 }

func (s *tickShard) Compute(now int64) { s.computes++ }
func (s *tickShard) CommitPhase(phase int, now int64) int {
	if int64(phase) != s.commits%2 {
		s.misordered++
	}
	s.commits++
	return 1
}

// parallelEngine builds an engine with nShards trivial shards on
// workers workers.
func parallelEngine(workers, nShards int) (*Engine, []*tickShard) {
	var e Engine
	shards := make([]*tickShard, nShards)
	plan := &ParallelPlan{Workers: workers}
	for i := range shards {
		shards[i] = &tickShard{}
		plan.Shards = append(plan.Shards, shards[i])
	}
	e.SetParallel(plan)
	return &e, shards
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
	e, _ := parallelEngine(16, 3)
	defer e.CloseWorkers()
	if got := e.plan.Workers; got != 3 {
		t.Fatalf("Workers = %d after clamp; want 3", got)
	}
}

// TestParallelRunsEveryShardEveryPhase pins the two-phase tick: every
// shard computes once, then sees commit phase 0 and phase 1, in that
// order, every tick.
func TestParallelRunsEveryShardEveryPhase(t *testing.T) {
	const ticks = 100
	e, shards := parallelEngine(2, 4)
	defer e.CloseWorkers()
	if err := e.Run(ticks); err != nil {
		t.Fatal(err)
	}
	for i, s := range shards {
		if s.computes != ticks {
			t.Errorf("shard %d: %d computes, want %d", i, s.computes, ticks)
		}
		if s.commits != 2*ticks || s.misordered != 0 {
			t.Errorf("shard %d: %d commit calls, %d out of phase order; want %d, 0",
				i, s.commits, s.misordered, 2*ticks)
		}
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
	e, _ := parallelEngine(4, 8)
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

// panicShard panics in the requested phase on the requested tick.
type panicShard struct {
	tickShard
	at int64
}

func (s *panicShard) CommitPhase(phase int, now int64) int {
	if now == s.at {
		panic("panicShard: boom")
	}
	return s.tickShard.CommitPhase(phase, now)
}

// TestParallelPanicReachesCaller pins the panic contract: a panic on
// any worker winds the gang down and re-raises on the caller's
// goroutine, where core's usual recovery path expects it.
func TestParallelPanicReachesCaller(t *testing.T) {
	var e Engine
	plan := &ParallelPlan{Workers: 2}
	plan.Shards = append(plan.Shards, &panicShard{at: 10}, &tickShard{})
	e.SetParallel(plan)
	defer e.CloseWorkers()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("worker panic did not propagate to the caller")
		}
	}()
	_ = e.Run(100)
	t.Fatal("Run returned normally past a panicking shard")
}
