// Parallel tick execution: the engine's Workers mode.
//
// The serial engine already splits every tick into a Compute phase
// that reads only start-of-tick state and a Commit phase that applies
// the staged decisions. Compute is the phase that parallelises without
// an ownership rule: a model cut into shards computes them
// concurrently, each shard writing only its own staging while all
// other state is frozen. After one barrier, worker 0 runs the same
// commit loop over the registered components that Step runs and ends
// the tick. The commit is the serial commit, so a parallel run is
// bit-identical to the serial one by construction: every order-
// sensitive step (statistics, the trace, the watchdog, the per-cycle
// hook) runs on one goroutine in the serial order.
package sim

import (
	"sync"
	"sync/atomic"
	"time"

	"ringmesh/internal/obs"
	"ringmesh/internal/pool"
)

// Shard is one compute partition of a parallel model. The engine runs
// shards concurrently, so Compute may read any state (all of it is
// frozen during the compute phase) but write only the shard's own
// staging, which the model's registered Commit applies afterwards.
type Shard interface {
	// Compute stages the shard's transfer decisions for this tick from
	// start-of-tick state.
	Compute(now int64)
}

// PartitionShard names one shard of a model's Partition.
type PartitionShard struct {
	Name string
	Comp Shard
}

// Partition is a model's description of its compute sharding, the
// result of the network layer's Model.Partition: shards that together
// stage everything the model's own Compute stages.
type Partition struct {
	Shards []PartitionShard
}

// ParallelPlan is the engine-level execution plan assembled from a
// model's Partition.
type ParallelPlan struct {
	// Workers is the goroutine count; it is clamped to the shard count.
	Workers int
	// Shards compute concurrently, block-partitioned over the workers,
	// in place of the registered components' Compute.
	Shards []Shard
	// ShardNames labels the shards for phase-timing reports (parallel
	// to Shards).
	ShardNames []string
}

// SetParallel installs a parallel execution plan: subsequent Run calls
// compute the plan's shards across a worker gang instead of calling
// the registered components' Compute, and commit the registered
// components as Step does. Degenerate plans (nil, one worker, fewer
// than two shards) clear the plan, keeping the serial path.
func (e *Engine) SetParallel(p *ParallelPlan) {
	e.CloseWorkers()
	if p == nil || p.Workers <= 1 || len(p.Shards) <= 1 {
		e.plan = nil
		return
	}
	if p.Workers > len(p.Shards) {
		p.Workers = len(p.Shards)
	}
	e.plan = p
	e.phaseStats = nil // re-enable per plan: shard/worker counts changed
}

// EnablePhaseStats turns on phase timing for the installed parallel
// plan: each worker times its shards' Compute calls and its own
// barrier waits, and worker 0 times the serial commit.
// Observation-only — the schedule, and therefore the simulation
// result, is unchanged — but not free (two clock reads per shard
// phase), so it is opt-in. No-op without a plan.
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
// the workers cross two barriers:
//
//	worker 0: raise stop when done
//	barrier   ── all: Compute own shards
//	barrier
//	worker 0: commit (the registered components, as Step does), end
//	          the tick, watchdog — then loop
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
	// and every phase call is bracketed with clock reads. The schedule
	// is identical either way: timing is observation-only.
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
			if w == 0 && (abort.Load() || runErr != nil || e.now >= end) {
				stop.Store(true)
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
			if w == 0 && !abort.Load() {
				seg(func() {
					if ps == nil {
						e.commit(now)
					} else {
						t0 := time.Now()
						e.commit(now)
						ps.AddCommit(time.Since(t0))
						ps.AddTicks(1)
					}
					runErr = e.checkWatchdog()
				})
			}
		}
	})
	if panicked != nil {
		panic(panicked)
	}
	return runErr
}
