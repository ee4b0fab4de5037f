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

	"ringmesh/internal/metrics"
	"ringmesh/internal/packet"
	"ringmesh/internal/stats"
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

// Injection queue indices, in injection priority order (responses
// before requests, both after transit traffic).
const (
	qResp     = 0
	qReq      = 1
	numInject = 2
)

// injectClass returns the injection queue index of p's class.
func injectClass(p *packet.Packet) int {
	if p.Type.IsResponse() {
		return qResp
	}
	return qReq
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
	// period is the clock divider, in engine ticks, of every station on
	// this ring: 1 except on the PM-clocked rings below a double-speed
	// global ring, which act every second tick.
	period int64
	// stagedInj counts injections granted per channel during the
	// current compute phase, so simultaneous injections cannot
	// overshoot the bubble bound.
	stagedInj [numVCs]int
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

// active reports whether the ring's stations act on this tick.
func (r *ringInst) active(now int64) bool { return r.period == 1 || now%r.period == 0 }

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

// compute stages this cycle's transfer at every station of the ring
// (all stations of a ring share its clock).
func (r *ringInst) compute(now int64) {
	r.stagedInj = [numVCs]int{}
	for _, st := range r.stations {
		st.compute(now)
	}
}

// commit applies the ring's staged transfers and returns how many
// flits moved.
func (r *ringInst) commit(now int64) int {
	moved := 0
	for _, st := range r.stations {
		if st.commit(now) {
			moved++
		}
	}
	return moved
}

// vcState is one virtual channel's state at a station.
type vcState struct {
	// buf is the transit buffer (capacity: one cache-line packet).
	buf packet.FIFO
	// txPkt/txSrc: wormhole lock within this channel; txSrc nil means
	// the transit buffer, else one of the station's injection queues.
	txPkt *packet.Packet
	txSrc *packet.FIFO
	// inPkt/inRoute: the packet currently streaming in from upstream
	// on this channel, and where its head was routed.
	inPkt   *packet.Packet
	inRoute routeKind
}

// station is one attachment on a unidirectional ring. All of a
// station's state sits in the struct itself (the queues by value), and
// a network's stations are allocated as one slice in tick order, so a
// station-cycle walks memory forwards. The fields the tick reads on
// every visit come first.
type station struct {
	// Per-cycle staging: the single flit crossing this station's
	// output link this cycle.
	staged      bool
	stagedRoute routeKind
	stagedVC    uint8
	// lastVC is the round-robin pointer for link arbitration between
	// channels.
	lastVC    uint8
	stagedF   packet.Flit
	stagedSrc *packet.FIFO // nil means the channel's transit buffer

	// flt is the installed fault on this station's output link; nil
	// (the common case) costs one pointer check per compute. See
	// fault.go.
	flt *stFault

	util stats.Utilization
	// stall, when non-nil (metrics enabled, NIC stations only), counts
	// injection-stall cycles: active cycles where an injection queue
	// held flits but no injection-queue flit crossed the output link
	// (either nothing moved or transit traffic won the link).
	stall *metrics.Counter

	// vcs are the per-virtual-channel transit paths.
	vcs [numVCs]vcState
	// inject are the injection queues this station drains onto the
	// ring: a NIC's output response/request registers (filled from the
	// PM by nic.refill), or the IRI buffers filled by the exit of the
	// peer station on the other ring.
	inject [numInject]packet.FIFO

	// downstream is the next station around the ring.
	downstream *station
	// ring is the physical ring this station sits on.
	ring *ringInst

	// The exit rule: a packet to dst leaves the ring here when dst's
	// membership of [exitLo, exitHi) differs from exitOutside — a NIC
	// exits its own PM id, an IRI's upper station the subtree below
	// it, its lower station everything outside that subtree. The zero
	// value exits nothing.
	exitLo, exitHi int
	exitOutside    bool
	// The exit itself: deliver is the local PM's delivery port (NIC
	// stations; a perfect sink, called when the tail flit lands), peer
	// is the other half of the IRI, whose injection queues this
	// station's exit fills (IRI stations). Exactly one is set on every
	// station of a built network.
	deliver func(p *packet.Packet, now int64)
	peer    *station

	// tracer is the optional lifecycle recorder; hopLabel is the
	// "where" of this station's hop and exit events, built once when a
	// recorder is attached (see Network.SetTracer).
	tracer   *trace.Recorder
	hopLabel string

	// name is used in panic messages, traces and stall reports.
	name string
	// level is the ring level (0 = global) for utilization grouping.
	level int
}

// init prepares a zeroed station: transit buffers of one cache-line
// packet each and injection queues of injectFlits.
func (s *station) init(name string, level, clFlits, injectFlits int) {
	s.name, s.level = name, level
	for v := range s.vcs {
		s.vcs[v].buf = packet.MakeFIFO(clFlits)
	}
	for i := range s.inject {
		s.inject[i] = packet.MakeFIFO(injectFlits)
	}
}

// exits reports whether a packet to dst leaves the ring at this
// station.
func (s *station) exits(dst int) bool {
	return (dst >= s.exitLo && dst < s.exitHi) != s.exitOutside
}

// exitSpace reports, from start-of-cycle state, whether the exit can
// absorb this flit now. The PM is a perfect sink (DESIGN.md):
// responses are consumed immediately and requests join the unbounded
// memory queue.
func (s *station) exitSpace(f packet.Flit) bool {
	return s.deliver != nil || s.peer.inject[injectClass(f.Pkt)].Space() >= 1
}

// idle reports whether the station holds no flit in any of its
// queues. Then no channel has a candidate: an unlocked channel finds
// neither a transit head nor an injectable head, and a lock held over
// an empty source is a bubble.
func (s *station) idle() bool {
	return s.vcs[vcDescent].buf.Empty() && s.vcs[vcAscent].buf.Empty() &&
		s.inject[qResp].Empty() && s.inject[qReq].Empty()
}

// candidate returns the flit channel v would send this cycle, its
// source queue (nil = transit buffer), and whether one exists.
func (s *station) candidate(v int) (packet.Flit, *packet.FIFO, bool) {
	vc := &s.vcs[v]
	if vc.txPkt != nil {
		q := vc.txSrc
		if q == nil {
			q = &vc.buf
		}
		head, ok := q.Peek()
		if !ok {
			return packet.Flit{}, nil, false // bubble: wait for the worm
		}
		if head.Pkt != vc.txPkt {
			panic(fmt.Sprintf("ring: %s vc%d would interleave %s into %s",
				s.name, v, head.Pkt, vc.txPkt))
		}
		return head, vc.txSrc, true
	}
	if head, ok := vc.buf.Peek(); ok {
		if !head.Head() {
			panic(fmt.Sprintf("ring: %s vc%d transit head %s is mid-packet with no lock",
				s.name, v, head))
		}
		return head, nil, true
	}
	for i := range s.inject {
		q := &s.inject[i]
		head, ok := q.Peek()
		// Mid-packet inject heads belong to a locked worm of some
		// channel; skip (the locked path above consumes them).
		if !ok || !head.Head() || s.ring.class(head.Pkt.Dst) != v {
			continue
		}
		return head, q, true
	}
	return packet.Flit{}, nil, false
}

// compute stages at most one outgoing flit for this cycle based on
// start-of-cycle state, arbitrating the physical link round-robin
// between the two virtual channels.
func (s *station) compute(now int64) {
	s.staged = false
	if s.flt != nil && s.fltBlocked(now) {
		return // output link faulted: nothing crosses this cycle
	}
	if s.idle() {
		return
	}
	v := int(s.lastVC)
	for k := 0; k < numVCs; k++ {
		if v++; v == numVCs {
			v = 0
		}
		f, src, ok := s.candidate(v)
		if !ok {
			continue
		}
		fromInject := src != nil
		route, ok := s.downstream.accepts(f, v, fromInject)
		if !ok {
			continue
		}
		if f.Head() && fromInject && route == routeContinue {
			// The packet becomes a new transit resident of the ring;
			// account for it so simultaneous injections this cycle
			// cannot overfill the channel (bubble rule).
			s.ring.stagedInj[v]++
		}
		s.staged = true
		s.stagedF = f
		s.stagedVC = uint8(v)
		s.stagedSrc = src
		s.stagedRoute = route
		return
	}
}

// accepts decides whether this station can absorb the offered flit on
// channel v this cycle (judged from start-of-cycle buffer occupancy)
// and which way the packet routes here. fromInject marks flits whose
// source is an injection queue: their packets are not yet transit
// residents of this ring, so continuing subjects them to the bubble
// rule.
func (s *station) accepts(f packet.Flit, v int, fromInject bool) (routeKind, bool) {
	vc := &s.vcs[v]
	if f.Head() {
		if s.exits(f.Pkt.Dst) {
			return routeExit, s.exitSpace(f) // false: blocked on the exit queue
		}
		// Bubble rule: admit a new resident only while the channel
		// keeps at least one buffer's worth of packets free ring-wide.
		// Since every packet fits in one buffer, S-1 residents can
		// never fill all S buffers, so transit traffic always finds
		// space somewhere and the ring keeps moving.
		if fromInject && !s.ring.mayAdmitNewResident(v) {
			return routeContinue, false
		}
		return routeContinue, vc.buf.Space() >= 1
	}
	if vc.inPkt != f.Pkt {
		panic(fmt.Sprintf("ring: %s vc%d got body flit %s before its head", s.name, v, f))
	}
	if vc.inRoute == routeExit {
		return routeExit, s.exitSpace(f)
	}
	return routeContinue, vc.buf.Space() >= 1
}

// commit applies this cycle's staged transfer: pop from the source,
// update the wormhole lock, and deposit into the downstream station.
// Returns true when a flit moved (for the engine's progress counter).
func (s *station) commit(now int64) bool {
	s.util.Tick(1)
	if s.stall != nil && (!s.staged || s.stagedSrc == nil) && s.queuedFlits() > 0 {
		s.stall.Inc()
	}
	if !s.staged {
		return false
	}
	s.staged = false
	f, v, route := s.stagedF, int(s.stagedVC), s.stagedRoute
	s.lastVC = s.stagedVC
	vc := &s.vcs[v]
	src := s.stagedSrc
	if src == nil {
		src = &vc.buf
	}
	if got := src.Pop(); got != f {
		panic(fmt.Sprintf("ring: %s staged %s but popped %s", s.name, f, got))
	}
	if f.Tail() {
		vc.txPkt, vc.txSrc = nil, nil
	} else {
		vc.txPkt, vc.txSrc = f.Pkt, s.stagedSrc
	}
	if s.tracer != nil && f.Head() {
		kind := trace.Hop
		if route == routeExit && s.downstream.peer != nil {
			kind = trace.Exit
		}
		s.tracer.Record(now, kind, f.Pkt, s.hopLabel)
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
		if f.Head() && s.stagedSrc != nil {
			s.ring.resident[v]++
		}
	} else if f.Tail() && s.stagedSrc == nil {
		s.ring.resident[v]--
	}
	s.downstream.receive(f, v, route, now)
	s.util.Busy(1)
	return true
}

// receive absorbs a flit arriving from upstream on channel v (commit
// phase). For head flits the route was decided by accepts during
// compute and is passed through; body flits must follow their head.
func (s *station) receive(f packet.Flit, v int, route routeKind, now int64) {
	vc := &s.vcs[v]
	if f.Head() {
		vc.inPkt = f.Pkt
		vc.inRoute = route
	} else if vc.inPkt != f.Pkt {
		panic(fmt.Sprintf("ring: %s vc%d received body flit %s before its head", s.name, v, f))
	}
	route = vc.inRoute
	if f.Tail() {
		vc.inPkt = nil
	}
	switch {
	case route != routeExit:
		vc.buf.Push(f)
	case s.deliver != nil:
		if f.Tail() {
			s.deliver(f.Pkt, now)
		}
	default:
		s.peer.inject[injectClass(f.Pkt)].Push(f)
	}
}

// bufferedFlits counts flits resident in this station's transit
// buffers.
func (s *station) bufferedFlits() int {
	return s.vcs[vcDescent].buf.Len() + s.vcs[vcAscent].buf.Len()
}

// queuedFlits counts flits waiting in this station's injection queues.
func (s *station) queuedFlits() int {
	return s.inject[qResp].Len() + s.inject[qReq].Len()
}
