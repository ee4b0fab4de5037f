// Parallel assembly: turn a network model's compute partition into the
// engine's execution plan. The shards only compute; the PMs, the
// network and the measurement collector commit on one goroutine as in
// a serial tick, so no PM ownership or measurement staging is needed.
// One worker, or a model that declines to partition (every ring),
// leaves the engine on its serial path.
package core

import (
	"fmt"

	"ringmesh/internal/sim"
)

// applyParallel installs the parallel execution plan when cfg asks for
// workers and the model can shard itself; otherwise it leaves the
// engine serial.
func (s *System) applyParallel(cfg SystemConfig) error {
	if cfg.Workers <= 1 {
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
	plan := &sim.ParallelPlan{Workers: cfg.Workers}
	for _, ps := range part.Shards {
		plan.Shards = append(plan.Shards, ps.Comp)
		plan.ShardNames = append(plan.ShardNames, ps.Name)
	}
	s.engine.SetParallel(plan)
	if cfg.PhaseStats {
		s.engine.EnablePhaseStats()
	}
	return nil
}
