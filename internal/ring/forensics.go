package ring

// Stall forensics for the ring family (Model.BuildStallReport). The
// builders run on a frozen system after the engine watchdog trips:
// they re-ask each station the same question compute asks every cycle
// — "what would you send, and would downstream take it?" — and turn
// every refusal into a wait-for edge. All inspection uses the same
// pure start-of-cycle predicates the switching logic uses (Peek and
// space checks), so building a report never mutates model state.
//
// Edges point at the agent that must act before the blocked sender
// can: the downstream station for transit-buffer refusals, and the
// station that drains the target IRI queue for exit refusals — the
// indirection that lets a hierarchy deadlock appear as a closed cycle
// of stations in the report.

import (
	"fmt"

	"ringmesh/internal/packet"
	"ringmesh/internal/sim"
)

// BuildStallReport implements network.Model for the wormhole
// network.
func (n *Network) BuildStallReport(now int64) *sim.StallReport {
	rep := sim.NewStallReport(now, n.BufferedFlits())

	pred := map[*station]*station{}
	for i := range n.stations {
		pred[n.stations[i].downstream] = &n.stations[i]
	}

	for i := range n.stations {
		st := &n.stations[i]
		rep.Buffer(st.name, st.bufferedFlits(), numVCs*n.clFlits)
		for v := 0; v < numVCs; v++ {
			st.vcs[v].buf.EachPacket(func(p *packet.Packet) { rep.Stuck(p, st.name) })
			f, src, ok := st.candidate(v)
			if !ok {
				// A committed worm whose next flit has not arrived
				// waits on whoever feeds its source queue: the upstream
				// station, or — locked on an IRI queue — the peer whose
				// exit fills it (a NIC's registers hold whole packets).
				if vc := &st.vcs[v]; vc.txPkt != nil {
					from, why := pred[st], "committed to a worm whose flits are still upstream"
					if vc.txSrc != nil {
						from, why = st.peer, "committed to a worm still crossing the IRI queue"
					}
					if from != nil {
						rep.Wait(st.name, from.name, why)
					}
				}
				continue
			}
			if _, accepted := st.downstream.accepts(f, v, src != nil); accepted {
				continue // this flit can move next cycle; not blocked
			}
			d := st.downstream
			exiting := false
			if f.Head() {
				exiting = d.exits(f.Pkt.Dst)
			} else {
				exiting = d.vcs[v].inPkt == f.Pkt && d.vcs[v].inRoute == routeExit
			}
			to, why := d, fmt.Sprintf("vc%d transit buffer full", v)
			if exiting {
				// The peer drains the queue this exit fills.
				if d.peer != nil {
					to, why = d.peer, "IRI transfer queue full"
				}
			} else if src != nil && d.vcs[v].buf.Space() >= 1 {
				why = fmt.Sprintf("bubble rule: vc%d transit path full ring-wide", v)
			}
			rep.Wait(st.name, to.name, why)
		}
	}

	// Packets waiting in NIC registers, then in IRI queues. An IRI
	// station is named after the buffers it injects from
	// ("iri[lo,hi).up" drains the up buffers).
	for id := range n.nics {
		st := n.nics[id].st
		for q := range st.inject {
			st.inject[q].EachPacket(func(p *packet.Packet) { rep.Stuck(p, st.name+".out") })
		}
	}
	for _, upper := range n.iris {
		for _, st := range [...]*station{upper, upper.peer} {
			rep.Buffer(st.name, st.queuedFlits(), st.inject[qResp].Cap()+st.inject[qReq].Cap())
			for q := range st.inject {
				st.inject[q].EachPacket(func(p *packet.Packet) { rep.Stuck(p, st.name) })
			}
		}
	}
	return rep.Finish()
}

// BuildStallReport implements network.Model for the slotted
// network. Slotted rings cannot gridlock (slots advance regardless),
// so a trip here is a livelock: packets NACKed around their ring
// because an IRI transfer queue never drains, or injections starved
// by full occupancy. Ring instances appear as "sring[lo,hi)" nodes so
// those relationships still form cycles.
func (n *SlottedNetwork) BuildStallReport(now int64) *sim.StallReport {
	rep := sim.NewStallReport(now, n.BufferedFlits())

	drain := map[*spktQueue]*sstation{}
	for _, st := range n.stations {
		for _, q := range st.inject {
			drain[q] = st
		}
	}
	ringOf := map[*sstation]*sring{}
	ringName := func(r *sring) string { return fmt.Sprintf("sring[%d,%d)", r.lo, r.hi) }
	for _, r := range n.rings {
		for _, st := range r.stations {
			ringOf[st] = r
		}
	}

	for _, r := range n.rings {
		flits := 0
		for i := range r.slots {
			p := r.slots[i].pkt
			if p == nil {
				continue
			}
			flits += p.Flits
			rep.Stuck(p, ringName(r))
			// A circulating packet blocked at its exit: find its exit
			// station on this ring and the queue that refuses it.
			for _, st := range r.stations {
				if st.exits == nil || !st.exits(p.Dst) || st.exitPM != nil {
					continue
				}
				if q := st.exitQueueFor(p); q.count() >= q.cap {
					rep.Wait(ringName(r), drain[q].name, "IRI transfer queue full (packet NACKed each lap)")
				}
				break
			}
		}
		rep.Buffer(ringName(r), flits, len(r.slots)*n.clFlits)
	}

	for _, st := range n.stations {
		for _, q := range st.inject {
			if p, ok := q.peek(now * n.sub); ok {
				rep.Stuck(p, st.name)
				r := ringOf[st]
				if !r.mayAdmit(p) {
					rep.Wait(st.name, ringName(r), "no admissible slot (ring occupancy at the ascent bound)")
				}
			}
			for _, it := range q.items {
				rep.Stuck(it.pkt, st.name)
			}
		}
	}

	for _, ir := range n.iris {
		name := fmt.Sprintf("siri[%d,%d)", ir.lo, ir.hi)
		rep.Buffer(name+".up", ir.upResp.bufferedFlits()+ir.upReq.bufferedFlits(),
			(ir.upResp.cap+ir.upReq.cap)*n.clFlits)
		rep.Buffer(name+".down", ir.downResp.bufferedFlits()+ir.downReq.bufferedFlits(),
			(ir.downResp.cap+ir.downReq.cap)*n.clFlits)
	}
	return rep.Finish()
}
