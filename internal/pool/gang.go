package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Gang is a reusable, fixed-size set of worker goroutines that execute
// a body in lockstep, built for the parallel tick engine: unlike
// ForEach, which hands independent items to whichever worker is free,
// a Gang runs the *same* body on every worker and lets the body
// rendezvous at barriers (Sync), which is what a phased
// compute/commit-per-shard tick loop needs.
//
// The caller's goroutine is worker 0: Run executes body(0) inline and
// body(1..n-1) on the gang's goroutines, returning when all have
// finished. Between Run calls the extra goroutines park on a channel,
// so a gang amortizes goroutine startup across many Run invocations
// (the engine dispatches one Run per multi-thousand-tick chunk).
//
// A Gang must be Closed when no longer needed or its goroutines leak;
// Close is idempotent. Sync may only be called from inside a running
// body, and every worker must reach the same number of Sync calls —
// the lockstep discipline is the caller's responsibility.
type Gang struct {
	n      int
	body   []chan func(worker int)
	wg     sync.WaitGroup
	bar    barrier
	closed bool
}

// NewGang creates a gang of n workers (n < 1 means 1). It starts n-1
// goroutines; the caller supplies the nth by invoking Run.
func NewGang(n int) *Gang {
	if n < 1 {
		n = 1
	}
	g := &Gang{n: n}
	g.bar.n = int32(n)
	g.body = make([]chan func(int), n-1)
	for i := range g.body {
		ch := make(chan func(int))
		g.body[i] = ch
		w := i + 1
		go func() {
			for f := range ch {
				f(w)
				g.wg.Done()
			}
		}()
	}
	return g
}

// Run executes body on every worker — body(0) on the calling
// goroutine — and returns when all of them have finished.
func (g *Gang) Run(body func(worker int)) {
	g.wg.Add(g.n - 1)
	for _, ch := range g.body {
		ch <- body
	}
	body(0)
	g.wg.Wait()
}

// Sync blocks the calling worker until every worker in the gang has
// reached the barrier, then releases them all. The atomic generation
// handoff gives the race detector (and the memory model) a
// happens-before edge from everything written before the barrier to
// everything read after it.
func (g *Gang) Sync() { g.bar.wait() }

// SyncTimed is Sync returning how long this worker waited at the
// barrier — the observability variant the engine's opt-in phase
// timing uses. A long wait on one worker is the signature of shard
// imbalance: its gang-mates are still computing.
func (g *Gang) SyncTimed() time.Duration {
	t0 := time.Now()
	g.bar.wait()
	return time.Since(t0)
}

// Close releases the gang's goroutines. The gang must be idle (no Run
// in flight). Safe to call more than once.
func (g *Gang) Close() {
	if g.closed {
		return
	}
	g.closed = true
	for _, ch := range g.body {
		close(ch)
	}
}

// barrier is a sense-reversing central barrier. Arrivals increment
// count; the last arrival resets it and bumps the generation, which
// releases the spinners. Waiters spin briefly and then yield, so the
// barrier stays cheap when workers arrive together (the common case on
// a machine with a core per worker) without starving anyone when the
// gang is oversubscribed.
type barrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Uint32
}

func (b *barrier) wait() {
	if b.n <= 1 {
		return
	}
	gen := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.gen.Add(1)
		return
	}
	for spins := 0; b.gen.Load() == gen; spins++ {
		if spins > 32 {
			runtime.Gosched()
		}
	}
}
