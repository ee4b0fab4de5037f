package mesh

import (
	"fmt"

	"ringmesh/internal/sim"
)

// Compute partition of the mesh for the parallel tick engine: one
// shard per router row. A row's compute writes only its own routers'
// staging and reads start-of-tick state, neighbouring rows' input
// occupancy included; the mesh's Commit then applies every row's
// staging on one goroutine, exactly as in a serial tick.

// rowShard is one row of routers.
type rowShard struct {
	n       *Network
	routers []router
}

// Compute implements sim.Shard: stage this row's crossbar transfers
// and injections.
func (s *rowShard) Compute(int64) {
	for i := range s.routers {
		s.n.computeRouter(&s.routers[i])
	}
}

// Partition implements network.Model: one shard per router row. A
// single-row mesh has nothing to cut and declines.
func (n *Network) Partition() *sim.Partition {
	k := n.cfg.Spec.K
	if k < 2 {
		return nil
	}
	p := &sim.Partition{}
	for row := 0; row < k; row++ {
		p.Shards = append(p.Shards, sim.PartitionShard{
			Name: fmt.Sprintf("row%d", row),
			Comp: &rowShard{n: n, routers: n.routers[row*k : (row+1)*k]},
		})
	}
	return p
}
