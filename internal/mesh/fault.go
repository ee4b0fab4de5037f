package mesh

// Fault injection and stall forensics for the mesh model (the
// ApplyFaultPlan and BuildStallReport halves of network.Model). Event
// node indices are router ids (row-major, same as PM ids); event times
// are PM cycles, which equal engine ticks for the mesh.
//
// Fault semantics, per event kind:
//
//   - LinkStutter (factor 0): all four neighbour output ports die —
//     the router forwards nothing while local ejection keeps working,
//     so delivered packets still drain.
//   - NodeSlowdown (factor k >= 2): every output port, including
//     ejection, acts only on every k-th cycle.
//   - PortDegrade: only the named neighbour output port (Port indexes
//     topo.Direction: 0 north, 1 south, 2 east, 3 west) is degraded —
//     dead when Factor resolves to 0, otherwise slowed.
//
// PM injection into the local input FIFO is not gated: a fault models
// the router's switching fabric and links, not the PM, and injection
// self-limits once the local FIFO fills.
//
// Overlapping events on one router merge per port, later start times
// overwriting earlier ones. Expired state self-clears at the next
// compute, returning the router to a single nil check.

import (
	"fmt"

	"ringmesh/internal/fault"
	"ringmesh/internal/packet"
	"ringmesh/internal/sim"
	"ringmesh/internal/topo"
)

// neighbourPorts is the number of fault-addressable output ports per
// router (the four directions; Local is only affected by NodeSlowdown).
const neighbourPorts = int(topo.Local)

// rtrFault is one router's installed per-port fault state.
type rtrFault struct {
	until  [topo.NumPorts]int64 // first tick port is healthy again
	factor [topo.NumPorts]int64 // 0 = dead; k >= 2 = act every k-th cycle
	// maxUntil is the last until across ports; once now passes it the
	// whole struct is dropped.
	maxUntil int64
}

// blocked reports whether output o is suppressed this cycle.
func (f *rtrFault) blocked(o topo.Direction, now int64) bool {
	if now >= f.until[o] {
		return false
	}
	if f.factor[o] == 0 {
		return true
	}
	return now%f.factor[o] != 0
}

// ports returns the output ports an event touches.
func faultPorts(ev fault.Event) []topo.Direction {
	switch ev.Kind {
	case fault.LinkStutter:
		return []topo.Direction{topo.North, topo.South, topo.East, topo.West}
	case fault.PortDegrade:
		return []topo.Direction{topo.Direction(ev.Port)}
	default: // NodeSlowdown: the whole crossbar, ejection included
		return []topo.Direction{topo.North, topo.South, topo.East, topo.West, topo.Local}
	}
}

// ApplyFaultPlan implements network.Model. Call once, after
// construction and before the first tick.
func (n *Network) ApplyFaultPlan(p *fault.Plan) error {
	events, err := p.Materialize(len(n.routers), neighbourPorts)
	if err != nil {
		return err
	}
	sched := make([]fault.Scheduled, 0, len(events))
	for _, ev := range events {
		r := n.routers[ev.Node]
		ports := faultPorts(ev)
		until, factor := ev.End(), fault.SlowFactor(ev)
		sched = append(sched, fault.Scheduled{
			At: ev.Start,
			Apply: func() {
				if r.flt == nil {
					r.flt = &rtrFault{}
				}
				for _, o := range ports {
					r.flt.until[o] = until
					r.flt.factor[o] = factor
				}
				if until > r.flt.maxUntil {
					r.flt.maxUntil = until
				}
			},
		})
	}
	n.faults = fault.NewDriver(sched)
	return nil
}

// BuildStallReport implements network.Model. E-cube routing
// on a mesh is deadlock-free, so a watchdog trip here means either a
// fault pinned traffic (dead ports show up as self-loop cycles) or a
// flow-control bug; either way the wait-for graph names the culprit.
func (n *Network) BuildStallReport(now int64) *sim.StallReport {
	rep := &sim.StallReport{BufferedFlits: n.BufferedFlits()}
	rname := func(id int) string { return fmt.Sprintf("router%d", id) }

	seen := map[*packet.Packet]bool{}
	addPkt := func(p *packet.Packet, where string) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		rep.Oldest = append(rep.Oldest, sim.StuckPacket{
			ID: p.ID, Type: p.Type.String(), Src: p.Src, Dst: p.Dst,
			AgeTicks: now - p.Issue, Where: where,
		})
	}

	for _, r := range n.routers {
		buffered := 0
		for i := topo.Direction(0); i < topo.NumPorts; i++ {
			buffered += r.inputs[i].Len()
			r.inputs[i].EachPacket(func(p *packet.Packet) { addPkt(p, rname(r.id)) })
		}
		if r.injPkt != nil {
			addPkt(r.injPkt, rname(r.id)+".inj")
		}
		if buffered > 0 {
			rep.Buffers = append(rep.Buffers, sim.BufferStat{
				Node: rname(r.id), Flits: buffered,
				Capacity: int(topo.NumPorts) * n.cfg.bufferFlits(),
			})
		}
		if r.flt != nil {
			for o := topo.Direction(0); o < topo.NumPorts; o++ {
				if now >= r.flt.until[o] {
					continue
				}
				if r.flt.factor[o] == 0 {
					rep.ActiveFaults = append(rep.ActiveFaults,
						fmt.Sprintf("%s %s: output dead until tick %d", rname(r.id), o, r.flt.until[o]))
				} else {
					rep.ActiveFaults = append(rep.ActiveFaults,
						fmt.Sprintf("%s %s: slowed x%d until tick %d", rname(r.id), o, r.flt.factor[o], r.flt.until[o]))
				}
			}
		}
		var h heads
		n.decode(r, &h)
		for o := topo.Direction(0); o < topo.NumPorts; o++ {
			_, f, ok := r.pickMove(&h, o)
			if !ok {
				// A locked worm whose next flit has not arrived waits
				// on the upstream router feeding that input.
				if r.outLock[o] != nil && r.outLockIn[o] != topo.Local {
					if up := r.nbr[r.outLockIn[o]]; up != nil {
						rep.WaitFor = append(rep.WaitFor, sim.WaitEdge{
							From: rname(r.id), To: rname(up.id),
							Why: fmt.Sprintf("committed worm on %s output, flits still upstream", o),
						})
					}
				}
				continue
			}
			if r.flt != nil && now < r.flt.until[o] && r.flt.factor[o] == 0 {
				rep.WaitFor = append(rep.WaitFor, sim.WaitEdge{
					From: rname(r.id), To: rname(r.id),
					Why: fmt.Sprintf("%s output port faulted", o),
				})
				continue
			}
			if o == topo.Local {
				continue // ejection always succeeds
			}
			if nb := r.nbr[o]; nb != nil && nb.inputs[opposite[o]].Space() < 1 {
				rep.WaitFor = append(rep.WaitFor, sim.WaitEdge{
					From: rname(r.id), To: rname(nb.id),
					Why: fmt.Sprintf("%s carrying %s: downstream input full", o, f.Pkt),
				})
			}
		}
	}

	rep.Cycles = sim.DetectCycles(rep.WaitFor)
	rep.Oldest = sim.SortOldest(rep.Oldest, 5)
	return rep
}
