package ring

import (
	"fmt"

	"ringmesh/internal/packet"
	"ringmesh/internal/sim"
)

// Ownership partitions of the ring family for the parallel tick
// engine: one shard per physical ring, for both switching techniques.
//
// A ring shard owns its stations' transit buffers, wormhole locks,
// utilization counters and (on leaf rings) the NIC output registers,
// the PMs and their delivery ports — every station's downstream sits
// on the same ring, so a commit's receive/deliver path never leaves
// the shard. The only cross-shard state is the IRI up/down queues
// shared between a parent and a child ring. They are safe because
// each has exactly one producer (the exiting station) and one consumer
// (the injecting station), at most one flit or packet crosses per tick,
// and all push/pop decisions were staged at compute time from frozen
// start-of-tick state; the two models just need the producer and the
// consumer never to mutate one queue concurrently:
//
//   - Wormhole: the exit push is deferred. station.receive routes it into
//     the committing ring's outbox during commit phase 0 (where the
//     consumer's pop runs) and the outbox flushes in phase 1, behind a
//     barrier. A pop takes the start-of-tick head and a push appends to
//     the tail, so the end state is order-independent and bit-identical
//     to the serial schedule.
//   - Slotted: commits are level-phased — deepest rings commit in
//     phase 0, the global ring last. Only rings of adjacent levels
//     share an IRI, and they are never in the same phase, so the live
//     pushes stay race-free; the child-before-parent order is exactly
//     the serial builder's post-order schedule, and the at=now+1
//     injectability stamp already keeps same-tick pushes invisible to
//     same-tick pops.
type deferredPush struct {
	fifo *packet.FIFO
	f    packet.Flit
}

// ringShard owns one physical wormhole ring.
type ringShard struct {
	ring *ringInst
	// nics are the NIC couplings on this ring (leaf rings only), in
	// PM-id order — the serial refill order restricted to the shard.
	nics   []nic
	outbox []deferredPush
}

// Compute implements sim.Shard: reset the ring's per-tick injection
// staging (serially done for all rings at once) and stage the ring's
// transfers. Stations read neighbouring state freely — everything is
// frozen during the compute phase — and stagedInj is only ever touched
// by the ring's own stations. Fault stepping is not repeated here; the
// partition's Prologue runs it serially.
func (s *ringShard) Compute(now int64) {
	if s.ring.active(now) {
		s.ring.compute(now)
	}
}

// CommitPhase implements sim.Shard: phase 0 is the ring-local commit
// (stations in ring order, then NIC refills — the serial relative
// order) with cross-ring IRI pushes staged in the outbox; phase 1
// flushes the outbox.
func (s *ringShard) CommitPhase(phase int, now int64) int {
	if phase != 0 {
		for i := range s.outbox {
			s.outbox[i].fifo.Push(s.outbox[i].f)
			s.outbox[i] = deferredPush{} // drop the packet reference
		}
		s.outbox = s.outbox[:0]
		return 0
	}
	if !s.ring.active(now) {
		return 0
	}
	moved := s.ring.commit(now)
	for i := range s.nics {
		s.nics[i].refill()
	}
	return moved
}

// Partition implements network.Model for the wormhole network:
// one shard per physical ring, two commit phases (ring-local commit,
// then the cross-ring exchange). Installing the partition reroutes the
// IRI exit sinks through the shard outboxes, so a non-nil return must
// be driven through the shards. A single-ring hierarchy has nothing to
// cut and declines.
func (n *Network) Partition() *sim.Partition {
	if len(n.rings) < 2 {
		return nil
	}
	p := &sim.Partition{
		CommitPhases: 2,
		Prologue: func(now int64) {
			if n.faults != nil {
				n.faults.Step(now)
			}
		},
	}
	for i, r := range n.rings {
		sh := &ringShard{ring: r}
		lo, hi := r.lo, r.lo // internal rings own no PMs
		// A leaf ring's first slot is a NIC.
		if r.stations[0].deliver != nil {
			lo, hi = r.lo, r.hi
			sh.nics = n.nics[lo:hi]
		}
		// Route this ring's IRI exits through the shard outbox. A
		// station on ring r only ever exits flits during ring r's own
		// commit (the pushing station's downstream is on r).
		for _, st := range r.stations {
			if st.peer != nil {
				st.outbox = &sh.outbox
			}
		}
		p.Shards = append(p.Shards, sim.PartitionShard{
			Name: fmt.Sprintf("ring%d[%d,%d)", i, r.lo, r.hi),
			PMLo: lo,
			PMHi: hi,
			Comp: sh,
		})
	}
	// Same-tick deliveries happen in the serial station commit order,
	// and the delivery to a PM runs during the commit of the station
	// *upstream* of its NIC — so the serial completion order is the
	// n.stations position of each NIC's upstream neighbour, not PM-id
	// order (a leaf ring's parent IRI station commits last but delivers
	// to the ring's first NIC).
	for i := range n.stations {
		if d := n.stations[i].downstream; d.deliver != nil {
			p.DeliverOrder = append(p.DeliverOrder, d.exitLo) // a NIC exits its PM's id
		}
	}
	return p
}

// sringShard owns one slotted ring. Its commit phase is keyed to the
// ring's depth (deepest level first, global ring last): only adjacent
// levels share IRI transfer queues, so rings committing in the same
// phase touch disjoint state, and child-before-parent reproduces the
// serial post-order walk of n.rings.
type sringShard struct {
	n     *SlottedNetwork
	ring  *sring
	phase int
	// nics are the couplings on this ring (leaf rings only, phase 0),
	// in PM-id order.
	nics []*snic
}

// Compute implements sim.Shard. The slotted model stages nothing (all
// movement is single-writer slot and queue manipulation in commit).
func (s *sringShard) Compute(now int64) {}

// CommitPhase implements sim.Shard: step the ring on its level's
// phase, then refill this ring's NIC output registers (serially the
// refills run after all rings step, but they touch only shard-local
// registers and PM pending lists, and refilled packets carry at=now+1
// so no same-tick pop can see them).
func (s *sringShard) CommitPhase(phase int, now int64) int {
	if phase != s.phase {
		return 0
	}
	moved := 0
	if now%s.ring.slotPeriod == 0 {
		moved = s.n.stepRing(s.ring, now)
	}
	for _, nc := range s.nics {
		if now%nc.period == 0 {
			s.n.refillNIC(nc, now)
		}
	}
	return moved
}

// Partition implements network.Model for the slotted network:
// one shard per ring, one commit phase per hierarchy level. A
// single-ring hierarchy declines. Slotted deliveries happen leaf-ring
// by leaf-ring in increasing PM-id order (post-order ring walk,
// stations in ring order), so DeliverOrder is the identity.
func (n *SlottedNetwork) Partition() *sim.Partition {
	if len(n.rings) < 2 {
		return nil
	}
	levels := n.cfg.Spec.NumLevels()
	p := &sim.Partition{
		CommitPhases: levels,
		Prologue: func(now int64) {
			if n.faults != nil {
				n.faults.Step(now)
			}
		},
	}
	for i, r := range n.rings {
		sh := &sringShard{n: n, ring: r, phase: levels - 1 - r.stations[0].level}
		lo, hi := r.lo, r.lo // internal rings own no PMs
		if sh.phase == 0 {   // deepest level: the leaf rings
			lo, hi = r.lo, r.hi
			sh.nics = n.nics[lo:hi]
		}
		p.Shards = append(p.Shards, sim.PartitionShard{
			Name: fmt.Sprintf("sring%d[%d,%d)", i, r.lo, r.hi),
			PMLo: lo,
			PMHi: hi,
			Comp: sh,
		})
	}
	for id := range n.nics {
		p.DeliverOrder = append(p.DeliverOrder, id)
	}
	return p
}
