package mesh

// Stall forensics for the mesh model (Model.BuildStallReport). The
// builder runs on a frozen system: it re-asks each router the question
// compute asks every cycle — "which flit would each output move, and
// would downstream take it?" — through the same pickMove and space
// checks, so building a report never mutates model state.
//
// Wait edges run between channels, not routers: an input buffer is
// named "router<id>.<input>", and each edge leaves the input holding
// the blocked flit. A flit refused downstream waits on the input it
// would enter, so those edges lie in e-cube's channel-dependency graph,
// which is acyclic; two flows crossing between two routers in opposite
// directions are two unrelated edges, never a cycle.

import (
	"fmt"

	"ringmesh/internal/sim"
	"ringmesh/internal/topo"
)

// BuildStallReport implements network.Model. E-cube routing on a mesh
// is deadlock-free, so a report here names no wait-for cycle: a
// watchdog trip means a flow-control bug, and the edges say where.
func (n *Network) BuildStallReport(now int64) *sim.StallReport {
	rep := sim.NewStallReport(now, n.BufferedFlits())
	rname := func(r *router) string { return fmt.Sprintf("router%d", r.id) }
	cname := func(r *router, in topo.Direction) string { return fmt.Sprintf("router%d.%s", r.id, in) }

	for id := range n.routers {
		r := &n.routers[id]
		buffered := 0
		for i := topo.Direction(0); i < topo.NumPorts; i++ {
			buffered += int(r.qn[i])
			for k := 0; k < int(r.qn[i]); k++ {
				rep.Stuck(n.queued(r, i, k).pkt, rname(r))
			}
		}
		rep.Stuck(r.injPkt, rname(r)+".inj")
		rep.Buffer(rname(r), buffered, int(topo.NumPorts)*n.cfg.bufferFlits())
		var h heads
		r.decode(&h)
		for o := topo.Direction(0); o < topo.NumPorts; o++ {
			in, f, ok := n.pickMove(r, &h, o)
			if !ok {
				// A locked worm whose next flit has not arrived (a
				// bubble behind a one-flit buffer) waits on the input
				// upstream that holds the worm.
				if in := topo.Direction(r.outLockIn[o]); r.outLock[o] != nil && in != topo.Local {
					if up := r.nbr[in]; up != nil {
						rep.Wait(cname(r, in), cname(up, topo.Direction(up.outLockIn[opposite[in]])),
							fmt.Sprintf("committed worm on %s output, flits still upstream", o))
					}
				}
				continue
			}
			if o == topo.Local {
				continue // ejection always succeeds
			}
			if nb := r.nbr[o]; nb != nil && !n.space(nb, opposite[o]) {
				rep.Wait(cname(r, in), cname(nb, opposite[o]),
					fmt.Sprintf("%s carrying %s: downstream input full", o, f.pkt))
			}
		}
	}

	return rep.Finish()
}
