package mesh

import (
	"fmt"

	"ringmesh/internal/sim"
	"ringmesh/internal/topo"
)

// Ownership partition of the mesh for the parallel tick engine: one
// shard per router row. A row owns its routers' inputs, injection
// registers, PM ports and their pending words, and utilization
// counters, so everything a row's commit touches is row-local except
// pushes across a row boundary (a flit leaving through a North or
// South output). Those are staged in
// the committing shard's outbox during commit phase 0 and applied in
// phase 1, after a barrier — each boundary input has exactly one
// producing router and a queue header of its own, so the outbox flush
// is contention-free and pushes land in the same order as the serial
// schedule. Deferring a push is invisible to every router because all
// phase-0 decisions were staged from start-of-tick state (a consumer
// pops only flits that were buffered at tick start, and space checks
// were frozen at compute), so the end-of-tick state is bit-identical to
// the serial commit.
//
// Serial same-tick completions happen in commitRouter's iteration
// order — increasing router id, which is increasing PM id — which is
// the order the measurement layer drains its per-PM cells in.

// deferredPush is one staged cross-row flit transfer: flit f goes to
// router to's input in.
type deferredPush struct {
	to *router
	in topo.Direction
	f  flit
}

// rowShard is one row of routers plus its cross-row outbox.
type rowShard struct {
	n       *Network
	row     int // row index: the y of routers [row*K, row*K+K)
	routers []router
	outbox  []deferredPush
}

// Compute implements sim.Shard: stage this row's crossbar transfers
// and injections. Reads of neighbouring rows' input occupancy are safe
// — all state is frozen during the compute phase. The link clock
// is not advanced here; the partition's Prologue runs it serially.
func (s *rowShard) Compute(int64) {
	for i := range s.routers {
		s.n.computeRouter(&s.routers[i])
	}
}

// CommitPhase implements sim.Shard: phase 0 is the row-local commit
// (cross-row pushes staged), phase 1 flushes the outbox.
func (s *rowShard) CommitPhase(phase int, now int64) int {
	if phase != 0 {
		for i := range s.outbox {
			d := &s.outbox[i]
			s.n.push(d.to, d.in, d.f)
			s.outbox[i] = deferredPush{}
		}
		s.outbox = s.outbox[:0]
		return 0
	}
	moved := 0
	for i := range s.routers {
		moved += s.n.commitRouter(&s.routers[i], now, s)
	}
	return moved
}

// Partition implements network.Model: one shard per router row. A
// single-row mesh has nothing to cut and declines.
func (n *Network) Partition() *sim.Partition {
	k := n.cfg.Spec.K
	if k < 2 {
		return nil
	}
	p := &sim.Partition{Prologue: n.begin}
	for row := 0; row < k; row++ {
		p.Shards = append(p.Shards, sim.PartitionShard{
			Name: fmt.Sprintf("row%d", row),
			PMLo: row * k,
			PMHi: (row + 1) * k,
			Comp: &rowShard{n: n, row: row, routers: n.routers[row*k : (row+1)*k]},
		})
	}
	return p
}
