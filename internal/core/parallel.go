// Parallel assembly: turn a network model's ownership partition into
// the engine's execution plan. The core layer owns what the model
// cannot see — the PMs and the measurement collector — so it wraps
// each model shard with the PMs the shard declared ownership of,
// switches the collector into per-PM staging cells, and installs the
// drain as the plan's epilogue. The serial fallbacks live here too: one
// worker, a model that declines to partition (every ring), or an
// attached tracer (the trace recorder is unsynchronized) all leave the
// engine on its exact serial path.
package core

import (
	"fmt"

	"ringmesh/internal/sim"
)

// coreShard pairs one model shard with the PMs it owns. The PMs commit
// first, in phase 0: the serial engine registers PMs before the
// network, so within a tick every PM's commit precedes the network's.
type coreShard struct {
	pms  pmSet
	comp sim.Shard
}

// Compute implements sim.Shard.
func (cs *coreShard) Compute(now int64) { cs.comp.Compute(now) }

// CommitPhase implements sim.Shard.
func (cs *coreShard) CommitPhase(phase int, now int64) int {
	if phase == 0 {
		cs.pms.Commit(now)
	}
	return cs.comp.CommitPhase(phase, now)
}

// applyParallel installs the parallel execution plan when cfg asks for
// workers and the model can shard itself; otherwise it leaves the
// engine serial. A malformed partition (PM ranges that do not tile
// [0, PMs) in shard order) is a model bug and fails construction
// rather than falling back.
func (s *System) applyParallel(cfg SystemConfig) error {
	if cfg.Workers <= 1 || cfg.Tracer != nil {
		return nil
	}
	part := s.net.Partition()
	if part == nil {
		return nil
	}
	if len(part.Shards) < 2 {
		return fmt.Errorf("core: network %q returned a %d-shard partition (must decline with nil or cut at least two shards)",
			cfg.Network, len(part.Shards))
	}
	shards := make([]sim.Shard, 0, len(part.Shards))
	names := make([]string, 0, len(part.Shards))
	next := 0
	for _, ps := range part.Shards {
		if ps.PMLo != next || ps.PMHi <= ps.PMLo || ps.PMHi > s.pmCount {
			return fmt.Errorf("core: partition shard %q owns PM range [%d,%d); want a non-empty range from %d within [0,%d)",
				ps.Name, ps.PMLo, ps.PMHi, next, s.pmCount)
		}
		next = ps.PMHi
		shards = append(shards, &coreShard{
			pms:  s.pms[ps.PMLo:ps.PMHi],
			comp: ps.Comp,
		})
		names = append(names, ps.Name)
	}
	if next != s.pmCount {
		return fmt.Errorf("core: partition owns no shard for PMs [%d,%d)", next, s.pmCount)
	}

	s.col.ShardByPM(s.pmCount)
	col := s.col
	s.engine.SetParallel(&sim.ParallelPlan{
		Workers:    cfg.Workers,
		Shards:     shards,
		ShardNames: names,
		Prologue:   part.Prologue,
		Epilogue:   func(int64) { col.DrainCells() },
	})
	if cfg.PhaseStats {
		s.engine.EnablePhaseStats()
	}
	return nil
}
