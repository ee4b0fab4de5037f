package ring

// Stall forensics for the ring family (Model.BuildStallReport). The
// builders run on a frozen system after the engine watchdog trips:
// they re-ask each station the same question compute asks every cycle
// — "what would you send, and would downstream take it?" — and turn
// every refusal into a wait-for edge. All inspection uses the same
// pure start-of-cycle predicates the switching logic uses (candidate,
// accepts and the queue counts), so building a report never mutates
// model state.
//
// Edges point at what must move before the blocked sender can: the
// downstream transit buffer for transit refusals, and the IRI queue
// the exit fills (drained by the peer station) for exit refusals — the
// indirection that lets a hierarchy deadlock appear as a closed cycle
// in the report.

import (
	"fmt"

	"ringmesh/internal/packet"
	"ringmesh/internal/sim"
)

// queueNames names a station's queues in wait-for edges.
var queueNames = [numQueues]string{"vc0", "vc1", "rsp", "req"}

// BuildStallReport implements network.Model for the wormhole
// network. With the virtual channels on, a wait edge runs between
// queues, not stations: a transit buffer is "<station>.vc<v>", an
// injection queue "<station>.rsp" or "<station>.req", and each edge
// leaves the queue holding the blocked flit for the queue it must
// enter (or, for a worm stalled on a bubble, the queue upstream that
// holds the rest of it). A station mixes both channels and its
// injection queues, so edges between stations would close cycles the
// channels' acyclic waits-for chain (package comment) never has. With
// them off (Config.UnsafeNoVC) every packet shares one channel and the
// edges stay between stations.
func (n *Network) BuildStallReport(now int64) *sim.StallReport {
	rep := sim.NewStallReport(now, n.BufferedFlits())
	node := func(s *station, q int) string {
		if n.cfg.UnsafeNoVC {
			return s.name
		}
		return s.name + "." + queueNames[q]
	}

	pred := map[*station]*station{}
	for i := range n.stations {
		pred[n.stations[i].downstream] = &n.stations[i]
	}

	for i := range n.stations {
		st := &n.stations[i]
		rep.Buffer(st.name, st.bufferedFlits(), numVCs*n.clFlits)
		for v := 0; v < numVCs; v++ {
			n.eachPacket(st, v, func(p *packet.Packet) { rep.Stuck(p, st.name) })
			q, d := st.candidate(v)
			if d == 0 {
				// A committed worm whose next flit has not arrived
				// waits on whoever feeds its source queue: the upstream
				// station, or — locked on an IRI queue — the peer whose
				// exit fills it from its own upstream (a NIC's
				// registers hold whole packets, so a NIC never waits
				// here). The feeder still holds the worm's tail, so it
				// is locked on the worm's channel, and the edge ends at
				// the queue it streams from.
				if st.locked&(1<<v) != 0 {
					src := int(st.txQ[v])
					from, w, why := pred[st], v, "committed to a worm whose flits are still upstream"
					if src >= numVCs {
						from, why = st.peer, "committed to a worm still crossing the IRI queue"
						for u := 0; from != nil && u < numVCs && !n.cfg.UnsafeNoVC; u++ {
							if st.peer.inPkt[u] == st.txPkt[v] {
								from, w = pred[st.peer], u
							}
						}
					}
					if from != nil {
						rep.Wait(node(st, src), node(from, int(from.txQ[w])), why)
					}
				}
				continue
			}
			if _, accepted := st.downstream.accepts(d, v, q >= numVCs); accepted {
				continue // this flit can move next cycle; not blocked
			}
			dn := st.downstream
			exiting := d&decExit != 0
			if d&decHead == 0 {
				exiting = dn.inRoute[v] == routeExit
			}
			to, why := node(dn, v), fmt.Sprintf("vc%d transit buffer full", v)
			if exiting {
				// The peer drains the queue this exit fills.
				if dn.peer != nil {
					to, why = node(dn.peer, exitQueue(d)), "IRI transfer queue full"
				}
			} else if q >= numVCs && dn.qn[v] < dn.qcap[v] {
				why = fmt.Sprintf("bubble rule: vc%d transit path full ring-wide", v)
			}
			rep.Wait(node(st, q), to, why)
		}
	}

	// Packets waiting in NIC registers, then in IRI queues. An IRI
	// station is named after the buffers it injects from
	// ("iri[lo,hi).up" drains the up buffers).
	for id := range n.nics {
		st := n.nics[id].st
		for q := qResp; q <= qReq; q++ {
			n.eachPacket(st, q, func(p *packet.Packet) { rep.Stuck(p, st.name+".out") })
		}
	}
	for _, upper := range n.iris {
		for _, st := range [...]*station{upper, upper.peer} {
			rep.Buffer(st.name, st.queuedFlits(), int(st.qcap[qResp]+st.qcap[qReq]))
			for q := qResp; q <= qReq; q++ {
				n.eachPacket(st, q, func(p *packet.Packet) { rep.Stuck(p, st.name) })
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
