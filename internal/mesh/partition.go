package mesh

import (
	"fmt"

	"ringmesh/internal/packet"
	"ringmesh/internal/sim"
)

// Ownership partition of the mesh for the parallel tick engine: one
// shard per router row. A row owns its routers' input FIFOs, injection
// registers, PM ports, and utilization counters, so everything a row's
// commit touches is row-local except pushes across a row boundary (a
// flit leaving through a North or South output). Those are staged in
// the committing shard's outbox during commit phase 0 and applied in
// phase 1, after a barrier — each boundary FIFO has exactly one
// producing router, so the outbox flush is contention-free and pushes
// land in the same order as the serial schedule. Deferring a push is
// invisible to every router because all phase-0 decisions were staged
// from start-of-tick state (a consumer pops only flits that were
// buffered at tick start, and space checks were frozen at compute), so
// the end-of-tick state is bit-identical to the serial commit.
//
// Serial same-tick completions happen in commitRouter's iteration
// order — increasing router id, which is increasing PM id — which is
// the order the measurement layer drains its per-PM cells in.

// deferredPush is one staged cross-row flit transfer.
type deferredPush struct {
	fifo *packet.FIFO
	f    packet.Flit
}

// rowShard is one row of routers plus its cross-row outbox.
type rowShard struct {
	n       *Network
	row     int // row index: the y of routers [row*K, row*K+K)
	routers []*router
	outbox  []deferredPush
}

// Compute implements sim.Shard: stage this row's crossbar transfers
// and injections. Reads of neighbouring rows' FIFO occupancy are safe
// — all state is frozen during the compute phase. Fault stepping is
// not repeated here; the partition's Prologue runs it serially.
func (s *rowShard) Compute(now int64) {
	for _, r := range s.routers {
		s.n.computeRouter(r, now)
	}
}

// CommitPhase implements sim.Shard: phase 0 is the row-local commit
// (cross-row pushes staged), phase 1 flushes the outbox.
func (s *rowShard) CommitPhase(phase int, now int64) int {
	if phase != 0 {
		for i := range s.outbox {
			s.outbox[i].fifo.Push(s.outbox[i].f)
			s.outbox[i] = deferredPush{}
		}
		s.outbox = s.outbox[:0]
		return 0
	}
	moved := 0
	for _, r := range s.routers {
		moved += s.n.commitRouter(r, now, s)
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
	p := &sim.Partition{}
	if n.faults != nil { // a fault plan is installed before Partition is called
		p.Prologue = n.faults.Step
	}
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
