package mesh

// Fault targets and stall forensics for the mesh model. An event's
// node is a router id (row-major, same as PM ids); its port is a
// neighbour output in topo.Direction order (0 north, 1 south, 2 east,
// 3 west), and Local, the ejection port, comes last. DESIGN §6 holds
// what each kind does. PM injection into the local input FIFO is never
// gated: a fault models the router's switching fabric and links, not
// the PM, and injection self-limits once the local FIFO fills.

import (
	"fmt"

	"ringmesh/internal/fault"
	"ringmesh/internal/sim"
	"ringmesh/internal/topo"
)

// FaultTargets implements network.Model: one target per router.
func (n *Network) FaultTargets() fault.Targets {
	t := fault.Targets{Links: int(topo.Local), Eject: true}
	for i := range n.routers {
		t.Slots = append(t.Slots, &n.routers[i].flt)
	}
	return t
}

// BuildStallReport implements network.Model. E-cube routing
// on a mesh is deadlock-free, so a watchdog trip here means either a
// fault pinned traffic (dead ports show up as self-loop cycles) or a
// flow-control bug; either way the wait-for graph names the culprit.
func (n *Network) BuildStallReport(now int64) *sim.StallReport {
	rep := sim.NewStallReport(now, n.BufferedFlits())
	rname := func(id int32) string { return fmt.Sprintf("router%d", id) }

	for id := range n.routers {
		r := &n.routers[id]
		buffered := 0
		for i := topo.Direction(0); i < topo.NumPorts; i++ {
			buffered += int(r.qn[i])
			for k := 0; k < int(r.qn[i]); k++ {
				rep.Stuck(n.queued(r, i, k).pkt, rname(r.id))
			}
		}
		rep.Stuck(r.injPkt, rname(r.id)+".inj")
		rep.Buffer(rname(r.id), buffered, int(topo.NumPorts)*n.cfg.bufferFlits())
		for o := topo.Direction(0); o < topo.NumPorts; o++ {
			if gate := r.flt.Port(int(o)); gate.Active(now) {
				rep.ActiveFaults = append(rep.ActiveFaults, gate.Describe(fmt.Sprintf("%s %s", rname(r.id), o), "output"))
			}
		}
		var h heads
		r.decode(&h)
		for o := topo.Direction(0); o < topo.NumPorts; o++ {
			_, f, ok := n.pickMove(r, &h, o)
			if !ok {
				// A locked worm whose next flit has not arrived waits
				// on the upstream router feeding that input.
				if in := topo.Direction(r.outLockIn[o]); r.outLock[o] != nil && in != topo.Local {
					if up := r.nbr[in]; up != nil {
						rep.Wait(rname(r.id), rname(up.id),
							fmt.Sprintf("committed worm on %s output, flits still upstream", o))
					}
				}
				continue
			}
			if r.flt.Port(int(o)).Dead(now) {
				rep.Wait(rname(r.id), rname(r.id), fmt.Sprintf("%s output port faulted", o))
				continue
			}
			if o == topo.Local {
				continue // ejection always succeeds
			}
			if nb := r.nbr[o]; nb != nil && !n.space(nb, opposite[o]) {
				rep.Wait(rname(r.id), rname(nb.id),
					fmt.Sprintf("%s carrying %s: downstream input full", o, f.pkt))
			}
		}
	}

	return rep.Finish()
}
