package obs

import (
	"fmt"
	"strings"
	"time"

	"ringmesh/internal/stats"
)

// ShardPhase accumulates one shard's compute time in the parallel tick
// loop.
type ShardPhase struct {
	// Name is the shard's partition name ("row0").
	Name string
	// ComputeNS is total nanoseconds spent in this shard's Compute.
	ComputeNS int64
}

// PhaseStats aggregates the parallel engine's phase timings: per-shard
// compute durations (the shard-imbalance evidence), the serial
// commit's duration, and a per-worker barrier-wait distribution (the
// synchronization-overhead evidence). It is strictly opt-in: the
// engine times nothing when its stats pointer is nil, and every method
// here is nil-safe.
//
// Concurrency contract: the engine's worker w writes only its own
// shards' ShardPhase entries (the worker→shard assignment is static)
// and only Barrier[w]; worker 0 alone writes CommitNS and Ticks.
// Readers must wait for the gang to join (Engine.Run returning) before
// calling the accessors — PhaseStats carries no locks by design, so the
// hot path stays a plain integer add.
type PhaseStats struct {
	// Shards holds one accumulator per plan shard, in shard order.
	Shards []ShardPhase
	// CommitNS is total nanoseconds spent in the serial commit.
	CommitNS int64
	// Barrier holds one barrier-wait distribution per worker,
	// nanoseconds per wait.
	Barrier []stats.Digest
	// Ticks is how many parallel ticks the accumulators cover.
	Ticks int64
}

// NewPhaseStats creates accumulators for the given shard names and
// worker count.
func NewPhaseStats(shardNames []string, workers int) *PhaseStats {
	if workers < 1 {
		workers = 1
	}
	p := &PhaseStats{
		Shards:  make([]ShardPhase, len(shardNames)),
		Barrier: make([]stats.Digest, workers),
	}
	for i, n := range shardNames {
		p.Shards[i].Name = n
	}
	return p
}

// AddCompute folds d into shard i's compute time.
func (p *PhaseStats) AddCompute(i int, d time.Duration) {
	if p == nil {
		return
	}
	p.Shards[i].ComputeNS += int64(d)
}

// AddCommit folds d into the serial commit time (worker 0 only).
func (p *PhaseStats) AddCommit(d time.Duration) {
	if p == nil {
		return
	}
	p.CommitNS += int64(d)
}

// AddBarrierWait records one barrier wait for worker w.
func (p *PhaseStats) AddBarrierWait(w int, d time.Duration) {
	if p == nil {
		return
	}
	p.Barrier[w].Add(float64(d))
}

// AddTicks advances the covered-tick count (worker 0 only).
func (p *PhaseStats) AddTicks(n int64) {
	if p == nil {
		return
	}
	p.Ticks += n
}

// TotalComputeNS returns the summed compute time across shards.
func (p *PhaseStats) TotalComputeNS() int64 {
	if p == nil {
		return 0
	}
	var t int64
	for i := range p.Shards {
		t += p.Shards[i].ComputeNS
	}
	return t
}

// TotalCommitNS returns the serial commit time.
func (p *PhaseStats) TotalCommitNS() int64 {
	if p == nil {
		return 0
	}
	return p.CommitNS
}

// String renders a human-readable summary: one line per shard, one
// for the commit and one per worker.
func (p *PhaseStats) String() string {
	if p == nil {
		return "phase stats disabled"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "phase stats over %d ticks\n", p.Ticks)
	for i := range p.Shards {
		s := &p.Shards[i]
		fmt.Fprintf(&b, "  shard %-12s compute %10s\n", s.Name, time.Duration(s.ComputeNS))
	}
	fmt.Fprintf(&b, "  serial commit %10s\n", time.Duration(p.CommitNS))
	for w := range p.Barrier {
		d := &p.Barrier[w]
		fmt.Fprintf(&b, "  worker %d barrier waits: n=%d mean=%s p95=%s max=%s\n",
			w, d.Count(),
			time.Duration(d.Mean()), time.Duration(d.Quantile(0.95)),
			time.Duration(d.Max()))
	}
	return b.String()
}
