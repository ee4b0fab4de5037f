// Package ring implements the paper's hierarchical unidirectional
// ring network at flit granularity: ring Network Interface
// Controllers (NICs) that attach processing modules to local rings,
// and Inter-Ring Interfaces (IRIs), modelled as 2x2 crossbar switches,
// that connect rings of adjacent levels (paper Section 2.1).
//
// Both node types share one building block, the station: a single
// attachment point on a ring with an incoming link, transit ("ring")
// buffers holding one cache-line packet each, an ordered set of
// injection queues, and an exit sink. A NIC is a station whose exit
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
	routeExit                      // leave through the exit sink
)

// Virtual channel indices.
const (
	vcDescent = 0 // destination inside this ring's subtree
	vcAscent  = 1 // destination outside: climbing to the LCA
	numVCs    = 2
)

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
	// stagedInj counts injections granted per channel during the
	// current compute phase, so simultaneous injections cannot
	// overshoot the bubble bound.
	stagedInj [numVCs]int
	// resident tracks packets admitted to each channel's transit path
	// from head acceptance until their tail flit leaves it. Counting
	// buffered flits alone is not enough: a worm streaming in from an
	// IRI queue can momentarily have no flit buffered (its head
	// already exited downstream, its body still crossing) while still
	// owning transit capacity.
	resident [numVCs]map[*packet.Packet]bool
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

// residents returns the number of packets currently admitted to
// channel v's transit path.
func (r *ringInst) residents(v int) int { return len(r.resident[v]) }

// mayAdmitNewResident reports whether one more packet may start using
// channel v's transit buffers (bubble rule: keep one buffer free).
func (r *ringInst) mayAdmitNewResident(v int) bool {
	if r.unsafeNoVC {
		return true
	}
	return r.residents(v)+r.stagedInj[v] <= len(r.stations)-2
}

// admit registers a packet on channel v's transit path.
func (r *ringInst) admit(v int, p *packet.Packet) { r.resident[v][p] = true }

// depart removes a packet once its tail flit has left the channel's
// transit path (idempotent; packets that exited without ever entering
// transit are simply absent).
func (r *ringInst) depart(v int, p *packet.Packet) { delete(r.resident[v], p) }

// sink absorbs flits that exit a ring at a station (a PM delivery
// port or an IRI up/down buffer).
type sink interface {
	// spaceFor reports, from start-of-cycle state, whether the sink
	// can absorb this flit now.
	spaceFor(f packet.Flit) bool
	// accept absorbs the flit (commit phase).
	accept(f packet.Flit, now int64)
}

// vcState is one virtual channel's state at a station.
type vcState struct {
	// buf is the transit buffer (capacity: one cache-line packet).
	buf *packet.FIFO
	// txPkt/txSrc: wormhole lock within this channel; txSrc nil means
	// the transit buffer.
	txPkt *packet.Packet
	txSrc *packet.FIFO
	// inPkt/inRoute: the packet currently streaming in from upstream
	// on this channel, and where its head was routed.
	inPkt   *packet.Packet
	inRoute routeKind
}

// station is one attachment on a unidirectional ring.
type station struct {
	// name is used in panic messages and traces.
	name string
	// level is the ring level (0 = global) for utilization grouping.
	level int
	// period is the clock divider in engine ticks (1 = every tick).
	period int64

	// downstream is the next station around the ring.
	downstream *station

	// ring is the physical ring this station sits on.
	ring *ringInst

	// vcs are the per-virtual-channel transit paths.
	vcs [numVCs]*vcState

	// exits decides whether a packet leaves the ring here.
	exits func(dst int) bool
	// exitSink absorbs exiting flits (non-nil when exits can fire).
	exitSink sink

	// inject is the priority-ordered list of injection queues
	// (responses before requests, after transit traffic).
	inject []*packet.FIFO

	// lastVC is the round-robin pointer for link arbitration between
	// channels.
	lastVC int

	// flt is the installed fault on this station's output link; nil
	// (the common case) costs one pointer check per compute. See
	// fault.go.
	flt *stFault

	// Per-cycle staging: the single flit crossing this station's
	// output link this cycle.
	staged      bool
	stagedF     packet.Flit
	stagedVC    int
	stagedSrc   *packet.FIFO // nil means the channel's transit buffer
	stagedRoute routeKind

	util *stats.Utilization
	// tracer is the optional lifecycle recorder; hopLabel is the
	// "where" of this station's hop and exit events, built once when a
	// recorder is attached (see Network.SetTracer).
	tracer   *trace.Recorder
	hopLabel string

	// stall, when non-nil (metrics enabled, NIC stations only), counts
	// injection-stall cycles: active cycles where an injection queue
	// held a whole packet but no injection-queue flit crossed the
	// output link (either nothing moved or transit traffic won the
	// link).
	stall *metrics.Counter
}

func newStation(name string, level int, clFlits int) *station {
	s := &station{
		name:   name,
		level:  level,
		period: 1,
		util:   &stats.Utilization{},
	}
	for v := 0; v < numVCs; v++ {
		s.vcs[v] = &vcState{buf: packet.NewFIFO(clFlits)}
	}
	return s
}

// active reports whether the station acts on this tick.
func (s *station) active(now int64) bool { return now%s.period == 0 }

// sourceQueue returns the queue channel v's lock draws from.
func (s *station) sourceQueue(v int) *packet.FIFO {
	if s.vcs[v].txSrc != nil {
		return s.vcs[v].txSrc
	}
	return s.vcs[v].buf
}

// candidate returns the flit channel v would send this cycle, its
// source queue (nil = transit buffer), and whether one exists.
func (s *station) candidate(v int) (packet.Flit, *packet.FIFO, bool) {
	vc := s.vcs[v]
	if vc.txPkt != nil {
		q := s.sourceQueue(v)
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
	for _, q := range s.inject {
		head, ok := q.Peek()
		if !ok {
			continue
		}
		if !head.Head() {
			// Mid-packet inject heads belong to a locked worm of some
			// channel; skip (the locked path above consumes them).
			continue
		}
		if s.ring.class(head.Pkt.Dst) != v {
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
	for k := 1; k <= numVCs; k++ {
		v := (s.lastVC + k) % numVCs
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
		s.stagedVC = v
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
	vc := s.vcs[v]
	if f.Head() {
		if s.exits != nil && s.exits(f.Pkt.Dst) {
			if s.exitSink.spaceFor(f) {
				return routeExit, true
			}
			return 0, false // blocked on the exit queue
		}
		if fromInject {
			// Bubble rule: admit a new resident only while the
			// channel keeps at least one buffer's worth of packets
			// free ring-wide. Since every packet fits in one buffer,
			// S-1 residents can never fill all S buffers, so transit
			// traffic always finds space somewhere and the ring keeps
			// moving.
			if vc.buf.Space() >= 1 && s.ring.mayAdmitNewResident(v) {
				return routeContinue, true
			}
			return 0, false
		}
		if vc.buf.Space() >= 1 {
			return routeContinue, true
		}
		return 0, false
	}
	if vc.inPkt != f.Pkt {
		panic(fmt.Sprintf("ring: %s vc%d got body flit %s before its head", s.name, v, f))
	}
	if vc.inRoute == routeExit {
		if s.exitSink.spaceFor(f) {
			return routeExit, true
		}
		return 0, false
	}
	if vc.buf.Space() >= 1 {
		return routeContinue, true
	}
	return 0, false
}

// commit applies this cycle's staged transfer: pop from the source,
// update the wormhole lock, and deposit into the downstream station.
// Returns true when a flit moved (for the engine's progress counter).
func (s *station) commit(now int64) bool {
	s.util.Tick(1)
	if s.stall != nil && (!s.staged || s.stagedSrc == nil) && s.injectWaiting() {
		s.stall.Inc()
	}
	if !s.staged {
		return false
	}
	s.staged = false
	f, v := s.stagedF, s.stagedVC
	s.lastVC = v
	vc := s.vcs[v]
	src := s.stagedSrc
	if src == nil {
		src = vc.buf
	}
	got := src.Pop()
	if got != f {
		panic(fmt.Sprintf("ring: %s staged %s but popped %s", s.name, f, got))
	}
	if f.Tail() {
		vc.txPkt, vc.txSrc = nil, nil
	} else {
		vc.txPkt, vc.txSrc = f.Pkt, s.stagedSrc
	}
	if s.tracer != nil && f.Head() {
		kind := trace.Hop
		if s.stagedRoute == routeExit && s.downstream.exitSink != nil {
			if _, isQueue := s.downstream.exitSink.(*queueSink); isQueue {
				kind = trace.Exit
			}
		}
		s.tracer.Record(now, kind, f.Pkt, s.hopLabel)
	}
	// Residency bookkeeping for the bubble rule: an injected head that
	// continues on the ring becomes a resident; a tail leaving the
	// transit path releases it (idempotent for packets that exited
	// without ever entering transit).
	if f.Head() && s.stagedSrc != nil && s.stagedRoute == routeContinue {
		s.ring.admit(v, f.Pkt)
	}
	if f.Tail() && s.stagedRoute == routeExit {
		s.ring.depart(v, f.Pkt)
	}
	s.downstream.receive(f, v, s.stagedRoute, now)
	s.util.Busy(1)
	return true
}

// receive absorbs a flit arriving from upstream on channel v (commit
// phase). For head flits the route was decided by accepts during
// compute and is passed through; body flits must follow their head.
func (s *station) receive(f packet.Flit, v int, route routeKind, now int64) {
	vc := s.vcs[v]
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
	if route == routeExit {
		s.exitSink.accept(f, now)
		return
	}
	vc.buf.Push(f)
}

// injectWaiting reports whether any injection queue holds flits —
// with the staged-source check in commit, a true result on a cycle
// that moved no injection flit is an injection stall. Only evaluated
// when the stall counter is attached (metrics enabled).
func (s *station) injectWaiting() bool {
	for _, q := range s.inject {
		if q.Len() > 0 {
			return true
		}
	}
	return false
}

// bufferedFlits counts flits resident in this station's transit
// buffers.
func (s *station) bufferedFlits() int {
	n := 0
	for v := 0; v < numVCs; v++ {
		n += s.vcs[v].buf.Len()
	}
	return n
}

// pmSink delivers exiting packets to the local processing module. The
// PM is a perfect sink (DESIGN.md): responses are consumed
// immediately and requests join the unbounded memory queue, so
// spaceFor is always true. Delivery fires when the tail flit lands.
type pmSink struct {
	deliver func(p *packet.Packet, now int64)
}

func (k *pmSink) spaceFor(packet.Flit) bool { return true }

func (k *pmSink) accept(f packet.Flit, now int64) {
	if f.Tail() {
		k.deliver(f.Pkt, now)
	}
}

// queueSink absorbs exiting flits into a request/response split pair
// of bounded FIFOs (an IRI's up or down buffer).
type queueSink struct {
	resp, req *packet.FIFO

	// outbox, when non-nil (a parallel partition is installed; see
	// partition.go), receives accepted flits as deferred pushes applied
	// in the cross-ring commit phase instead of being pushed live —
	// these FIFOs are the only state shared between ring shards. Serial
	// runs never set it, keeping the direct push path.
	outbox *[]deferredPush
}

func (k *queueSink) pick(p *packet.Packet) *packet.FIFO {
	if p.Type.IsResponse() {
		return k.resp
	}
	return k.req
}

func (k *queueSink) spaceFor(f packet.Flit) bool {
	return k.pick(f.Pkt).Space() >= 1
}

func (k *queueSink) accept(f packet.Flit, now int64) {
	q := k.pick(f.Pkt)
	if k.outbox != nil {
		*k.outbox = append(*k.outbox, deferredPush{fifo: q, f: f})
		return
	}
	q.Push(f)
}
