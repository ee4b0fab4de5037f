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

// faultActive reports fault state without the self-clearing side
// effect of fltBlocked (forensics must not mutate).
func faultActive(f *stFault, now int64) bool { return f != nil && now < f.until }

// faultDescr renders one installed fault for StallReport.ActiveFaults.
func faultDescr(name string, f *stFault) string {
	if f.factor == 0 {
		return fmt.Sprintf("%s: output link dead until tick %d", name, f.until)
	}
	return fmt.Sprintf("%s: slowed x%d until tick %d", name, f.factor, f.until)
}

// BuildStallReport implements network.Model for the wormhole
// network.
func (n *Network) BuildStallReport(now int64) *sim.StallReport {
	rep := &sim.StallReport{BufferedFlits: n.BufferedFlits()}

	pred := map[*station]*station{}
	for i := range n.stations {
		pred[n.stations[i].downstream] = &n.stations[i]
	}

	for i := range n.stations {
		st := &n.stations[i]
		if b := st.bufferedFlits(); b > 0 {
			rep.Buffers = append(rep.Buffers, sim.BufferStat{
				Node: st.name, Flits: b, Capacity: numVCs * n.clFlits,
			})
		}
		if faultActive(st.flt, now) {
			rep.ActiveFaults = append(rep.ActiveFaults, faultDescr(st.name, st.flt))
		}
		for v := 0; v < numVCs; v++ {
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
						rep.WaitFor = append(rep.WaitFor,
							sim.WaitEdge{From: st.name, To: from.name, Why: why})
					}
				}
				continue
			}
			if faultActive(st.flt, now) && st.flt.factor == 0 {
				rep.WaitFor = append(rep.WaitFor,
					sim.WaitEdge{From: st.name, To: st.name, Why: "output link faulted"})
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
			rep.WaitFor = append(rep.WaitFor,
				sim.WaitEdge{From: st.name, To: to.name, Why: why})
		}
	}

	// An IRI station is named after the buffers it injects from
	// ("iri[lo,hi).up" drains the up buffers).
	for _, upper := range n.iris {
		for _, st := range [...]*station{upper, upper.peer} {
			if l := st.queuedFlits(); l > 0 {
				rep.Buffers = append(rep.Buffers, sim.BufferStat{
					Node: st.name, Flits: l,
					Capacity: st.inject[qResp].Cap() + st.inject[qReq].Cap(),
				})
			}
		}
	}

	rep.Cycles = sim.DetectCycles(rep.WaitFor)
	rep.Oldest = sim.SortOldest(n.stuckPackets(now), 5)
	return rep
}

// stuckPackets snapshots every distinct packet with flits buffered in
// the network, tagged with the first buffer it was found in.
func (n *Network) stuckPackets(now int64) []sim.StuckPacket {
	var out []sim.StuckPacket
	seen := map[*packet.Packet]bool{}
	collect := func(where string, q *packet.FIFO) {
		q.EachPacket(func(p *packet.Packet) {
			if seen[p] {
				return
			}
			seen[p] = true
			out = append(out, sim.StuckPacket{
				ID: p.ID, Type: p.Type.String(), Src: p.Src, Dst: p.Dst,
				AgeTicks: now - p.Issue, Where: where,
			})
		})
	}
	for i := range n.stations {
		st := &n.stations[i]
		for v := range st.vcs {
			collect(st.name, &st.vcs[v].buf)
		}
	}
	queues := func(where string, st *station) {
		collect(where, &st.inject[qResp])
		collect(where, &st.inject[qReq])
	}
	for id := range n.nics {
		queues(n.nics[id].st.name+".out", n.nics[id].st)
	}
	for _, upper := range n.iris {
		queues(upper.name, upper)
		queues(upper.peer.name, upper.peer)
	}
	return out
}

// BuildStallReport implements network.Model for the slotted
// network. Slotted rings cannot gridlock (slots advance regardless),
// so a trip here is a livelock: packets NACKed around their ring
// because an IRI transfer queue never drains, or injections starved
// by full occupancy. Ring instances appear as "sring[lo,hi)" nodes so
// those relationships still form cycles.
func (n *SlottedNetwork) BuildStallReport(now int64) *sim.StallReport {
	rep := &sim.StallReport{BufferedFlits: n.BufferedFlits()}

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

	for _, r := range n.rings {
		flits := 0
		for i := range r.slots {
			p := r.slots[i].pkt
			if p == nil {
				continue
			}
			flits += p.Flits
			addPkt(p, ringName(r))
			// A circulating packet blocked at its exit: find its exit
			// station on this ring and the queue that refuses it.
			for _, st := range r.stations {
				if st.exits == nil || !st.exits(p.Dst) || st.exitPM != nil {
					continue
				}
				if q := st.exitQueueFor(p); q.count() >= q.cap {
					rep.WaitFor = append(rep.WaitFor, sim.WaitEdge{
						From: ringName(r), To: drain[q].name,
						Why: "IRI transfer queue full (packet NACKed each lap)",
					})
				}
				break
			}
		}
		if flits > 0 {
			rep.Buffers = append(rep.Buffers, sim.BufferStat{
				Node: ringName(r), Flits: flits, Capacity: len(r.slots) * n.clFlits,
			})
		}
	}

	for _, st := range n.stations {
		if faultActive(st.flt, now) {
			rep.ActiveFaults = append(rep.ActiveFaults, faultDescr(st.name, st.flt))
			if st.flt.factor == 0 {
				rep.WaitFor = append(rep.WaitFor,
					sim.WaitEdge{From: st.name, To: st.name, Why: "ring attachment faulted"})
			}
		}
		for _, q := range st.inject {
			if p, ok := q.peek(now); ok {
				addPkt(p, st.name)
				r := ringOf[st]
				if !r.mayAdmit(p) {
					rep.WaitFor = append(rep.WaitFor, sim.WaitEdge{
						From: st.name, To: ringName(r),
						Why: "no admissible slot (ring occupancy at the ascent bound)",
					})
				}
			}
			for _, it := range q.items {
				addPkt(it.pkt, st.name)
			}
		}
	}

	for _, ir := range n.iris {
		name := fmt.Sprintf("siri[%d,%d)", ir.lo, ir.hi)
		if l := ir.upResp.bufferedFlits() + ir.upReq.bufferedFlits(); l > 0 {
			rep.Buffers = append(rep.Buffers, sim.BufferStat{
				Node: name + ".up", Flits: l,
				Capacity: (ir.upResp.cap + ir.upReq.cap) * n.clFlits,
			})
		}
		if l := ir.downResp.bufferedFlits() + ir.downReq.bufferedFlits(); l > 0 {
			rep.Buffers = append(rep.Buffers, sim.BufferStat{
				Node: name + ".down", Flits: l,
				Capacity: (ir.downResp.cap + ir.downReq.cap) * n.clFlits,
			})
		}
	}

	rep.Cycles = sim.DetectCycles(rep.WaitFor)
	rep.Oldest = sim.SortOldest(rep.Oldest, 5)
	return rep
}
