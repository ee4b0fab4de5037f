// Parallel tick execution: the engine's Workers mode.
//
// The serial engine already has the structure that makes parallel
// execution deterministic — every tick is a Compute phase that reads
// only start-of-tick state, then a Commit phase that applies staged
// decisions. The parallel mode adds one requirement: *ownership*. A
// model is cut into shards such that no two shards commit to the same
// buffers; each shard's Compute and Commit then run on a worker
// goroutine, with a barrier between phases. Writes that would cross a
// shard boundary (a flit pushed into a queue another shard owns) are
// not performed in the owning commit phase — the model stages them in
// a per-shard outbox and applies them in a second commit phase, again
// separated by a barrier, so no buffer is ever touched by two workers
// without an intervening synchronization. Because every decision was
// staged from frozen start-of-tick state, deferring a push never
// changes what any component observed, and the end-of-tick state is
// bit-identical to the serial schedule.
//
// All order-sensitive work — fault injection, statistics that use
// order-dependent floating-point accumulation, the progress watchdog,
// the per-cycle hook — runs in serial sections on worker 0 (the
// Prologue before Compute and the engine epilogue after the second
// commit phase), so a parallel run reproduces the serial run's
// arithmetic exactly, not just its final buffer states.
package sim

import (
	"sync"
	"sync/atomic"
	"time"

	"ringmesh/internal/obs"
	"ringmesh/internal/pool"
)

// Shard is one ownership partition of a parallel model: a group of
// components that commit only to buffers this shard owns. The engine
// runs shards concurrently, so a Shard's methods must touch foreign
// state only as the phase discipline allows: Compute may read anything
// (all state is frozen during the compute phase) but write only shard-
// local state; CommitPhase may write only shard-owned buffers.
type Shard interface {
	// Compute stages the shard's transfer decisions for this tick from
	// start-of-tick state.
	Compute(now int64)
	// CommitPhase applies the shard's staged transfers for one of the
	// tick's two commit phases — 0, the shard-local commit with
	// cross-shard pushes staged in an outbox, then 1, the outbox flush —
	// and reports the number of progress events (flit movements): the
	// per-shard replacement for Engine.Progress/ProgressN, which must
	// not be called from inside a shard. The phases are globally
	// barrier-separated: phase 1 starts only after every shard finished
	// phase 0.
	CommitPhase(phase int, now int64) int
}

// commitPhases is the number of commit phases in a parallel tick.
const commitPhases = 2

// PartitionShard describes one shard of a model's Partition: the
// engine-facing Shard plus the non-empty half-open range [PMLo, PMHi)
// of processing-module ids whose state the shard owns.
type PartitionShard struct {
	Name       string
	PMLo, PMHi int
	Comp       Shard
}

// Partition is a model's description of its ownership sharding, the
// result of the network layer's Model.Partition. The PM ranges of the
// shards, taken in order, must tile [0, nPMs), and the serial engine
// must observe same-tick packet completions in increasing PM id: the
// measurement layer drains its per-PM completion staging in that
// order, reproducing the serial path's order-dependent accumulator
// arithmetic bit for bit.
type Partition struct {
	// Shards lists the ownership shards. Within a shard, components
	// commit in their serial order; across shards the engine imposes no
	// order, which is sound exactly because shards share no buffers.
	Shards []PartitionShard
	// Prologue, when non-nil, runs serially on worker 0 before each
	// tick's Compute phase (fault injection steps here: the fault
	// driver is a serial cursor walk the shards must not race on).
	Prologue func(now int64)
}

// ParallelPlan is the engine-level execution plan assembled from a
// model's Partition (the core layer wraps PM ownership and the
// measurement epilogue around the model's shards).
type ParallelPlan struct {
	// Workers is the goroutine count; it is clamped to the shard count.
	Workers int
	// Shards run concurrently, block-partitioned over the workers.
	Shards []Shard
	// ShardNames labels the shards for phase-timing reports (parallel
	// to Shards).
	ShardNames []string
	// Prologue, when non-nil, runs serially on worker 0 before Compute.
	Prologue func(now int64)
	// Epilogue, when non-nil, runs serially on worker 0 after the second
	// commit phase and before the engine's own end-of-tick bookkeeping
	// (progress fold, OnCycle, watchdog). The measurement drain — the
	// order-sensitive statistics work — happens here.
	Epilogue func(now int64)
}

// SetParallel installs a parallel execution plan: subsequent Run calls
// execute the plan's shards across a worker gang instead of the
// registered components. Degenerate plans (nil, one worker, fewer than
// two shards) clear the plan, keeping the exact serial path. The
// registered components are untouched either way — a cleared plan
// falls back to them bit for bit.
func (e *Engine) SetParallel(p *ParallelPlan) {
	e.CloseWorkers()
	if p == nil || p.Workers <= 1 || len(p.Shards) <= 1 {
		e.plan = nil
		e.shardMoved = nil
		return
	}
	if p.Workers > len(p.Shards) {
		p.Workers = len(p.Shards)
	}
	e.plan = p
	e.shardMoved = make([]int64, len(p.Shards))
	e.phaseStats = nil // re-enable per plan: shard/worker counts changed
}

// EnablePhaseStats turns on per-shard phase timing for the installed
// parallel plan: each worker times its shards' Compute and CommitPhase
// calls and its own barrier waits. Strictly observation-only — the
// schedule, and therefore the simulation result, is unchanged — but
// not free (two clock reads per shard phase), so it is opt-in. No-op
// without a plan.
func (e *Engine) EnablePhaseStats() {
	if e.plan != nil {
		e.phaseStats = obs.NewPhaseStats(e.plan.ShardNames, e.plan.Workers)
	}
}

// PhaseStats returns the phase-timing accumulator (nil unless
// EnablePhaseStats was called after the current plan was installed).
// Read only after Run has returned.
func (e *Engine) PhaseStats() *obs.PhaseStats { return e.phaseStats }

// Parallel reports whether a parallel plan is installed.
func (e *Engine) Parallel() bool { return e.plan != nil }

// CloseWorkers releases the engine's worker gang, if one was started.
// The gang is recreated lazily on the next parallel Run, so this is
// safe to call between runs; callers that drive many runs through one
// engine should close once at the end (core's runner does).
func (e *Engine) CloseWorkers() {
	if e.gang != nil {
		e.gang.Close()
		e.gang = nil
	}
}

// shardRange block-partitions the plan's shards over workers: worker w
// owns shards [w*n/W, (w+1)*n/W). Static assignment keeps the schedule
// deterministic and allocation-free.
func (e *Engine) shardRange(w int) (lo, hi int) {
	n := len(e.plan.Shards)
	return w * n / e.plan.Workers, (w + 1) * n / e.plan.Workers
}

// runParallel advances the simulation by ticks ticks on the worker
// gang. The whole tick loop runs inside one gang dispatch; per tick
// the workers cross four barriers:
//
//	worker 0: prologue (fault step) — or raise stop
//	barrier   ── all: Compute own shards
//	barrier   ── all: CommitPhase 0 own shards
//	barrier   ── all: CommitPhase 1 own shards
//	barrier
//	worker 0: epilogue (measurement drain), progress fold, OnCycle,
//	          watchdog — then loop
//
// A panic on any worker is captured (first one wins), the gang winds
// down in lockstep, and the panic is re-raised on the caller's
// goroutine so the usual recovery path sees it unchanged.
func (e *Engine) runParallel(ticks int64) error {
	p := e.plan
	if e.gang == nil {
		e.gang = pool.NewGang(p.Workers)
	}
	end := e.now + ticks
	var (
		stop      atomic.Bool
		abort     atomic.Bool
		panicOnce sync.Once
		panicked  any
		runErr    error
	)
	seg := func(f func()) {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicked = r })
				abort.Store(true)
			}
		}()
		f()
	}
	// With phase stats enabled, sync records each worker's barrier wait
	// and the shard loops bracket every phase call with clock reads.
	// The schedule is identical either way: timing is observation-only.
	ps := e.phaseStats
	sync := func(w int) {
		if ps == nil {
			e.gang.Sync()
			return
		}
		ps.AddBarrierWait(w, e.gang.SyncTimed())
	}
	e.gang.Run(func(w int) {
		lo, hi := e.shardRange(w)
		for {
			if w == 0 {
				if abort.Load() || runErr != nil || e.now >= end {
					stop.Store(true)
				} else if p.Prologue != nil {
					seg(func() { p.Prologue(e.now) })
				}
			}
			sync(w)
			if stop.Load() {
				return
			}
			now := e.now
			seg(func() {
				for i := lo; i < hi; i++ {
					if ps == nil {
						p.Shards[i].Compute(now)
					} else {
						t0 := time.Now()
						p.Shards[i].Compute(now)
						ps.AddCompute(i, time.Since(t0))
					}
				}
			})
			sync(w)
			for ph := 0; ph < commitPhases; ph++ {
				seg(func() {
					for i := lo; i < hi; i++ {
						if ps == nil {
							e.shardMoved[i] += int64(p.Shards[i].CommitPhase(ph, now))
						} else {
							t0 := time.Now()
							e.shardMoved[i] += int64(p.Shards[i].CommitPhase(ph, now))
							ps.AddCommit(i, time.Since(t0))
						}
					}
				})
				sync(w)
			}
			if w == 0 && !abort.Load() {
				seg(func() { runErr = e.finishTick(now) })
			}
		}
	})
	if panicked != nil {
		panic(panicked)
	}
	return runErr
}

// finishTick is the serial end-of-tick section of the parallel loop,
// run by worker 0 while the other workers wait at the loop-head
// barrier: fold the per-shard progress counters, drain the plan's
// epilogue (order-sensitive measurement), then close the tick exactly
// as the serial Step/Run pair does.
func (e *Engine) finishTick(now int64) error {
	var moved uint64
	for i := range e.shardMoved {
		moved += uint64(e.shardMoved[i])
		e.shardMoved[i] = 0
	}
	e.progress += moved
	e.phaseStats.AddTicks(1)
	if e.plan.Epilogue != nil {
		e.plan.Epilogue(now)
	}
	e.endTick(now, moved)
	return e.checkWatchdog()
}
