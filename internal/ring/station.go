// Package ring implements the paper's hierarchical unidirectional
// ring network at flit granularity: ring Network Interface
// Controllers (NICs) that attach processing modules to local rings,
// and Inter-Ring Interfaces (IRIs), modelled as 2x2 crossbar switches,
// that connect rings of adjacent levels (paper Section 2.1).
//
// Both node types share one building block, the station: a single
// attachment point on a ring with an incoming link, transit ("ring")
// buffers holding one cache-line packet each, an ordered set of
// injection queues, and an exit. A NIC is a station whose exit
// is the local PM and whose injection queues are the PM's output
// request/response buffers; an IRI is a pair of stations — one on the
// lower ring whose exit feeds the up buffer, one on the upper ring
// whose exit feeds the down buffer, each injecting from the opposite
// buffer.
//
// Switching is wormhole: within a virtual channel, an output that
// begins transmitting a packet is committed to it until the tail flit
// passes, idling on bubbles. Output priority follows the paper:
// transit packets first, then response injection, then request
// injection. Flow control is the idealized same-cycle variant: a
// sender stages a flit only when the receiving buffer had space at
// the start of the cycle (see internal/sim's two-phase discipline).
//
// # Deadlock freedom
//
// Blocking wormhole switching on hierarchies of rings with
// single-packet buffers can deadlock: a cycle of full transit buffers
// and full IRI up/down queues spanning ring levels leaves no packet
// able to advance. The paper does not discuss this, but we hit it
// readily (e.g. topology 3:3:8, the paper's own 72-processor 32-byte
// configuration, at T=2 under full load). We therefore add the
// textbook remedy — virtual channels (Dally) — in the minimal form
// that makes the hierarchy's resource graph acyclic:
//
//   - Every ring carries two virtual channels. A packet travels in
//     the *descent* channel when its destination lies inside the
//     ring's subtree (it is at or past its lowest common ancestor
//     ring and only moves down from here) and in the *ascent* channel
//     otherwise (it is still climbing toward its LCA).
//   - Flits of different virtual channels may interleave on a
//     physical link; flits within one channel never do.
//   - A bubble rule keeps one transit buffer per channel per ring
//     free: a packet may newly enter a ring's transit path only while
//     the channel retains a whole free buffer, so circulating traffic
//     can always advance (cf. bubble flow control, Carrión et al.).
//
// The waits-for chain is then acyclic — leaf-ascent → up queue →
// ...ascent levels... → LCA-ring descent → down queue → ...descent
// levels... → leaf-descent → PM sink (always free) — so some flit can
// always move. The cost is a second cl-sized transit buffer per
// station relative to the paper's Table 1 (documented in DESIGN.md);
// all other structure matches the paper.
package ring

import (
	"fmt"

	"ringmesh/internal/packet"
	"ringmesh/internal/trace"
)

// routeKind is a station's decision for an incoming packet.
type routeKind uint8

const (
	routeContinue routeKind = iota // stay on this ring
	routeExit                      // leave through the station's exit
)

// Virtual channel indices.
const (
	vcDescent = 0 // destination inside this ring's subtree
	vcAscent  = 1 // destination outside: climbing to the LCA
	numVCs    = 2
)

// Queue indices: a station's four queues are the transit buffer of
// each virtual channel (index = channel), then the injection queues in
// priority order (responses before requests, both after transit
// traffic).
const (
	qResp     = numVCs
	qReq      = numVCs + 1
	numInject = 2
	numQueues = numVCs + numInject
)

// vcMask and qMask bound a channel and a queue index. Both counts are
// powers of two, so masking a valid index changes nothing, and the hot
// paths mask their index once so that the compiler can drop the bounds
// checks of every station array it indexes.
const (
	vcMask = numVCs - 1
	qMask  = numQueues - 1
)

// A count that is not a power of two makes this negative and stops the
// build, since its mask would then change valid indices.
const _ uint = -(numVCs&vcMask | numQueues&qMask)

// The decode byte (flit.dec) push fixes for a flit at the station that
// holds it. The first four bits travel with the flit; the route bits
// are set for a head only, from its destination and the holding
// station's ring and exit, so the tick routes a head without following
// its packet. An empty slot is zero.
const (
	decPresent uint8 = 1 << iota // the slot holds a flit
	decHead                      // the packet's first (routing) flit
	decTail                      // the packet's last flit
	decResp                      // the packet is a response (its IRI queue class)
	decAscent                    // head: the packet rides the ascent channel on this ring
	decExit                      // head: the packet leaves the ring at the next station

	decKept = decPresent | decHead | decTail | decResp // what a hop keeps
)

// exitQueue returns the IRI queue a flit's decode byte joins: the
// response queue for responses, else the request queue.
func exitQueue(d uint8) int { return qReq - int(d/decResp&1) }

// flit is a buffered ring flit: its packet, its index in the packet and
// its decode byte.
type flit struct {
	pkt *packet.Packet
	idx int32
	dec uint8
}

// String renders the flit as packet.Flit does, for panics and tests.
func (f flit) String() string { return packet.Flit{Pkt: f.pkt, Index: int(f.idx)}.String() }

// decode returns the decode byte of p's flit i before any route bits.
func decode(p *packet.Packet, i int) uint8 {
	d := decPresent
	if i == 0 {
		d |= decHead
	}
	if i == p.Flits-1 {
		d |= decTail
	}
	if p.Type.IsResponse() {
		d |= decResp
	}
	return d
}

// ringInst groups the stations of one physical ring and owns the
// bubble flow-control bookkeeping per virtual channel.
type ringInst struct {
	stations []*station
	// lo, hi is the PM range of this ring's subtree; it classifies
	// packets into descent ([lo,hi)) or ascent channels.
	lo, hi int
	// unsafeNoVC disables both deadlock-avoidance mechanisms (see
	// Config.UnsafeNoVC): every packet classes as descent and the
	// bubble rule admits unconditionally.
	unsafeNoVC bool
	// late is set while a double-speed global ring runs its second
	// cycle of a PM cycle: a packet it delivers arrives half a PM cycle
	// after one delivered in the first.
	late bool
	// stagedInj counts injections granted per channel during the
	// current compute phase, so simultaneous injections cannot
	// overshoot the bubble bound.
	stagedInj [numVCs]int
	// cycles counts the ring's cycles: the clock every station's link
	// utilization takes its capacity from, and, less one, the index of
	// the cycle in progress. Every ring of a level begins its cycles
	// together, so their clocks agree.
	cycles int64
	// resident counts the packets admitted to each channel's transit
	// path, from the commit of an injected head that continues on the
	// ring until the commit of the tail flit that leaves it. Counting
	// buffered flits alone is not enough: a worm streaming in from an
	// IRI queue can momentarily have no flit buffered (its head already
	// exited downstream, its body still crossing) while still owning
	// transit capacity. CheckInvariants recounts from the buffers and
	// locks and requires equality.
	resident [numVCs]int
}

// class returns the virtual channel a packet to dst uses on this ring.
func (r *ringInst) class(dst int) int {
	if r.unsafeNoVC {
		return vcDescent
	}
	if dst >= r.lo && dst < r.hi {
		return vcDescent
	}
	return vcAscent
}

// mayAdmitNewResident reports whether one more packet may start using
// channel v's transit buffers (bubble rule: keep one buffer free).
func (r *ringInst) mayAdmitNewResident(v int) bool {
	if r.unsafeNoVC {
		return true
	}
	return r.resident[v]+r.stagedInj[v] <= len(r.stations)-2
}

// begin opens one of the ring's cycles.
func (r *ringInst) begin() {
	r.stagedInj = [numVCs]int{}
	r.cycles++
}

// station is one attachment on a unidirectional ring. Its four queues
// are windows over the network's flit slab (Network.slab), and a
// network's stations are allocated as one slice in tick order, so a
// station-cycle walks memory forwards. The first cache line holds what
// compute reads on every visit: the queues' front bytes and counts, the
// staging slot, the locks and the links to the neighbours it asks
// (TestStationFootprint pins it).
type station struct {
	// front[q] is the decode byte of queue q's front slot, zero when q
	// is empty; push and pop keep it. qn[q] counts q's flits.
	front [numQueues]uint8
	qn    [numQueues]uint16
	// Per-cycle staging: the single flit crossing this station's
	// output link this cycle, by channel, source queue and route, and
	// its decode byte, which commit compares with the popped flit's.
	staged      bool
	stagedRoute routeKind
	stagedVC    uint8
	stagedQ     uint8
	stagedFront uint8
	// lastVC is the round-robin pointer for link arbitration between
	// channels.
	lastVC uint8
	// locked has bit v set while channel v's output is committed to a
	// worm (wormhole lock) streaming from queue txQ[v]; txPkt[v] is the
	// worm.
	locked uint8
	txQ    [numVCs]uint8
	// inRoute[v] is where the head of the packet streaming in on
	// channel v was routed; inPkt[v] is that packet until its tail
	// arrives.
	inRoute [numVCs]routeKind
	// qcap[q] is queue q's capacity in flits: one cache-line packet for
	// a transit buffer, the register or IRI queue depth for an
	// injection queue.
	qcap [numQueues]uint16
	// downstream is the next station around the ring; ring is the
	// physical ring this station sits on.
	downstream *station
	ring       *ringInst
	// peer is the other half of an IRI (nil on a NIC): the station
	// whose injection queues this station's exit fills.
	peer *station
	// stalls counts injection-stall cycles: active cycles where an
	// injection queue held flits but no injection-queue flit crossed
	// the output link (either nothing moved or transit traffic won the
	// link). Exported per NIC as nic_inject_stall_cycles.
	stalls int64

	// Queue q is the qcap[q] slab slots from offset qoff[q]; its flits
	// start at window position qh[q] and wrap.
	qh   [numQueues]uint16
	qoff [numQueues]int32
	// id is the station's index in the network's slab: its bit in the
	// busy set (busyWord, busyBit) and its link counter.
	id       int32
	busyWord *uint64
	busyBit  uint64

	txPkt, inPkt [numVCs]*packet.Packet

	// The exit rule: a packet to dst leaves the ring here when dst's
	// membership of [exitLo, exitHi) differs from exitOutside — a NIC
	// exits its own PM id, an IRI's upper station the subtree below
	// it, its lower station everything outside that subtree. The zero
	// value exits nothing.
	exitLo, exitHi int
	exitOutside    bool
	// deliver is the local PM's delivery port (NIC stations; a perfect
	// sink, called when the tail flit lands). Every station of a built
	// network sets exactly one of deliver and peer.
	deliver func(p *packet.Packet, now int64, late bool)

	// hopLabel is the "where" of this station's hop and exit events,
	// built once when a recorder is attached (see Network.SetTracer).
	hopLabel string

	// name is used in panic messages, traces and stall reports.
	name string
	// level is the ring level (0 = global) for utilization grouping.
	level int
}

// wake puts the station in its network's busy set: it may hold a
// flit.
func (s *station) wake() { *s.busyWord |= s.busyBit }

// exits reports whether a packet to dst leaves the ring at this
// station.
func (s *station) exits(dst int) bool {
	return (dst >= s.exitLo && dst < s.exitHi) != s.exitOutside
}

// route returns the route bits of a head to dst held at s: its channel
// on s's ring and whether it exits at the next station.
func (s *station) route(dst int) uint8 {
	var d uint8
	if s.ring.class(dst) == vcAscent {
		d |= decAscent
	}
	if s.downstream.exits(dst) {
		d |= decExit
	}
	return d
}

// window returns the slab offset and capacity of s's queue q.
func (s *station) window(q int) (off, size int) { return int(s.qoff[q]), int(s.qcap[q]) }

// slot returns the slab index of s's queue q's k-th flit, 0 being its
// front.
func (s *station) slot(q, k int) int {
	off, size := s.window(q)
	if k += int(s.qh[q]); k >= size {
		k -= size
	}
	return off + k
}

// push appends f to s's queue q, first fixing its route bits at s (a
// head's only read of its packet on this hop), and sets q's front
// byte. It panics when q is full: callers check space first, so a
// violation is a flow-control bug.
func (n *Network) push(s *station, q int, f flit) {
	q &= qMask
	off, size := s.window(q)
	i := int(s.qh[q]) + int(s.qn[q])
	if int(s.qn[q]) >= size {
		panic(fmt.Sprintf("ring: %s push into full queue %d (flow-control violation)", s.name, q))
	} else if i >= size {
		i -= size
	}
	if f.dec &= decKept; f.dec&decHead != 0 {
		f.dec |= s.route(f.pkt.Dst)
	}
	n.slab[off+i] = f
	s.qn[q]++
	s.front[q] = n.slab[off+int(s.qh[q])].dec // f's, if q was empty
}

// pop removes and returns s's queue q's front flit and sets q's front
// byte. It panics when q is empty.
func (n *Network) pop(s *station, q int) flit {
	q &= qMask
	off, size := s.window(q)
	if s.qn[q] == 0 {
		panic(fmt.Sprintf("ring: %s pop from empty queue %d", s.name, q))
	}
	i := off + int(s.qh[q])
	f := n.slab[i]
	n.slab[i] = flit{} // do not pin the popped packet while the queue idles
	if s.qh[q]++; int(s.qh[q]) == size {
		s.qh[q] = 0
	}
	s.qn[q]--
	s.front[q] = n.slab[off+int(s.qh[q])].dec // zero once q is empty
	return f
}

// inject pushes all of p's flits into s's injection queue q.
func (n *Network) inject(s *station, q int, p *packet.Packet) {
	for i := 0; i < p.Flits; i++ {
		n.push(s, q, flit{pkt: p, idx: int32(i), dec: decode(p, i)})
	}
	s.wake()
}

// exitSpace reports, from start-of-cycle state, whether the exit can
// absorb a flit with decode byte d now. The PM is a perfect sink
// (DESIGN.md): responses are consumed immediately and requests join
// the unbounded memory queue.
func (s *station) exitSpace(d uint8) bool {
	q := exitQueue(d)
	return s.peer == nil || s.peer.qn[q] < s.peer.qcap[q]
}

// idle reports whether the station holds no flit in any of its
// queues. Then no channel has a candidate: an unlocked channel finds
// neither a transit head nor an injectable head, and a lock held over
// an empty source is a bubble.
func (s *station) idle() bool { return s.front == [numQueues]uint8{} }

// candidate returns the queue channel v would send from this cycle and
// the decode byte of its front flit, zero when there is none: the
// locked worm's source (empty: a bubble, wait for the worm), else the
// transit buffer, else the first injection queue whose front is a head
// riding v. A mid-packet injection front belongs to a locked worm of
// some channel, which the locked path consumes. It reads the front
// bytes and the lock alone; commit checks the popped flit against the
// lock (see popPanic).
func (s *station) candidate(v int) (q int, d uint8) {
	if s.locked&(1<<v) != 0 {
		q = int(s.txQ[v] & qMask)
		return q, s.front[q]
	}
	if d = s.front[v]; d != 0 {
		return v, d
	}
	head := decHead | uint8(v)*decAscent // a head riding v
	if d = s.front[qResp]; d&(decHead|decAscent) == head {
		return qResp, d
	}
	if d = s.front[qReq]; d&(decHead|decAscent) == head {
		return qReq, d
	}
	return 0, 0
}

// compute stages at most one outgoing flit for this cycle based on
// start-of-cycle state, arbitrating the physical link round-robin
// between the two virtual channels, and counts the cycle's injection
// stall, which that decision settles. It reports whether the station
// was found idle, holding no flit. Nothing is staged on entry: every
// staged station commits in the same tick.
func (s *station) compute() (idle bool) {
	if s.idle() {
		return true // nothing queued, so no stall either
	}
	v := int(s.lastVC)
	for k := 0; k < numVCs; k++ {
		v = (v + 1) & vcMask
		q, d := s.candidate(v)
		if d == 0 {
			continue
		}
		fromInject := q >= numVCs
		route, ok := s.downstream.accepts(d, v, fromInject)
		if !ok {
			continue
		}
		if d&decHead != 0 && fromInject && route == routeContinue {
			// The packet becomes a new transit resident of the ring;
			// account for it so simultaneous injections this cycle
			// cannot overfill the channel (bubble rule).
			s.ring.stagedInj[v]++
		}
		s.staged, s.stagedRoute = true, route
		s.stagedVC, s.stagedQ, s.stagedFront = uint8(v), uint8(q), d
		break
	}
	s.countStall()
	return false
}

// countStall counts this cycle as an injection stall when
// injection-queue flits wait but none is staged to cross the output
// link. A NIC's queues change only in its own commit and the refill
// after it, so the compute-time count is the one commit would see.
func (s *station) countStall() {
	if (!s.staged || s.stagedQ < numVCs) && s.qn[qResp]|s.qn[qReq] != 0 {
		s.stalls++
	}
}

// accepts decides whether this station can absorb a flit with decode
// byte d on channel v this cycle (judged from start-of-cycle buffer
// occupancy) and which way the packet routes here. fromInject marks
// flits whose source is an injection queue: their packets are not yet
// transit residents of this ring, so continuing subjects them to the
// bubble rule.
func (s *station) accepts(d uint8, v int, fromInject bool) (routeKind, bool) {
	v &= vcMask
	if d&decHead != 0 {
		if d&decExit != 0 {
			return routeExit, s.exitSpace(d) // false: blocked on the exit queue
		}
		// Bubble rule: admit a new resident only while the channel
		// keeps at least one buffer's worth of packets free ring-wide.
		// Since every packet fits in one buffer, S-1 residents can
		// never fill all S buffers, so transit traffic always finds
		// space somewhere and the ring keeps moving.
		if fromInject && !s.ring.mayAdmitNewResident(v) {
			return routeContinue, false
		}
		return routeContinue, s.qn[v] < s.qcap[v]
	}
	if s.inRoute[v] == routeExit {
		return routeExit, s.exitSpace(d)
	}
	return routeContinue, s.qn[v] < s.qcap[v]
}

// commit applies s's staged transfer: pop from the source, update the
// wormhole lock, and deposit into the downstream station. Only
// stations that staged a flit commit.
func (n *Network) commit(s *station, now int64) {
	s.staged = false
	v, q, route := int(s.stagedVC&vcMask), int(s.stagedQ&qMask), s.stagedRoute
	s.lastVC = s.stagedVC
	f := n.pop(s, q)
	if locked := s.locked&(1<<v) != 0; f.dec != s.stagedFront ||
		locked && f.pkt != s.txPkt[v] || !locked && f.dec&decHead == 0 {
		s.popPanic(f, v)
	}
	head, tail := f.dec&decHead != 0, f.dec&decTail != 0
	if tail {
		s.locked &^= 1 << v
		s.txPkt[v] = nil
	} else {
		s.locked |= 1 << v
		s.txQ[v], s.txPkt[v] = uint8(q), f.pkt
	}
	if n.tracer != nil && head {
		kind := trace.Hop
		if route == routeExit && s.downstream.peer != nil {
			kind = trace.Exit
		}
		n.tracer.Record(now, kind, f.pkt, s.hopLabel)
	}
	// Residency bookkeeping for the bubble rule: an injected head that
	// continues on the ring becomes a resident. Body flits follow the
	// head's route, so every flit of a resident enters the next
	// station's transit buffer and its tail can only leave the ring
	// from a transit buffer; a packet whose head exits straight from an
	// injection queue streams its tail out of that same queue and never
	// was one. So a tail exiting from a transit buffer is exactly a
	// resident leaving.
	if route == routeContinue {
		if head && q >= numVCs {
			s.ring.resident[v]++
		}
	} else if tail && q < numVCs {
		s.ring.resident[v]--
	}
	n.receive(s.downstream, f, v, route, now)
	n.util[s.id]++
}

// popPanic reports a flit commit popped for channel v that is not the
// one compute staged (its decode byte differs from the staged front
// byte), or that does not continue the channel's locked worm (a
// different packet would interleave two worms on the link), or that is
// mid-packet on an unlocked channel (its head is lost).
func (s *station) popPanic(f flit, v int) {
	if f.dec != s.stagedFront {
		panic(fmt.Sprintf("ring: %s staged a flit decoded %#x but popped %s decoded %#x",
			s.name, s.stagedFront, f, f.dec))
	}
	if s.locked&(1<<v) != 0 {
		panic(fmt.Sprintf("ring: %s vc%d would interleave %s into %s", s.name, v, f, s.txPkt[v]))
	}
	panic(fmt.Sprintf("ring: %s vc%d sends mid-packet flit %s with no lock", s.name, v, f))
}

// receive absorbs at s a flit arriving from upstream on channel v
// (commit phase). For head flits the route was decided by accepts
// during compute and is passed through; body flits must follow their
// head. A flit pushed into a queue wakes the queue's station.
func (n *Network) receive(s *station, f flit, v int, route routeKind, now int64) {
	v &= vcMask
	if f.dec&decHead != 0 {
		s.inPkt[v], s.inRoute[v] = f.pkt, route
	} else if s.inPkt[v] != f.pkt {
		panic(fmt.Sprintf("ring: %s vc%d received body flit %s before its head", s.name, v, f))
	}
	route = s.inRoute[v]
	if f.dec&decTail != 0 {
		s.inPkt[v] = nil
	}
	switch {
	case route != routeExit:
		n.push(s, v, f)
		s.wake()
	case s.peer == nil:
		if f.dec&decTail != 0 {
			s.deliver(f.pkt, now, s.ring.late)
		}
	default:
		n.push(s.peer, exitQueue(f.dec), f)
		s.peer.wake()
	}
}

// bufferedFlits counts flits resident in this station's transit
// buffers.
func (s *station) bufferedFlits() int { return int(s.qn[vcDescent]) + int(s.qn[vcAscent]) }

// queuedFlits counts flits waiting in this station's injection queues.
func (s *station) queuedFlits() int { return int(s.qn[qResp]) + int(s.qn[qReq]) }
