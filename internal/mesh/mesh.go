// Package mesh implements the paper's 2D bi-directional mesh at flit
// granularity (Section 2.2): one router type — a 5x5 crossbar NIC
// with four neighbour ports and a local PM port — input FIFO buffers
// of 1, 4, or cl flits, deterministic e-cube (dimension-order)
// routing, round-robin output arbitration, and wormhole switching
// with per-output locks held from head to tail flit.
//
// Links are 32-bit uni-directional channels, two per adjacent router
// pair, moving one flit per cycle. Flow control is the same
// idealized same-cycle space check used by the ring model: a flit is
// forwarded only when the downstream input FIFO had room at the start
// of the cycle.
package mesh

import (
	"fmt"
	"math/bits"

	"ringmesh/internal/metrics"
	"ringmesh/internal/node"
	"ringmesh/internal/packet"
	"ringmesh/internal/sim"
	"ringmesh/internal/topo"
	"ringmesh/internal/trace"
)

// Config parameterizes a mesh network.
type Config struct {
	// Spec is the square mesh geometry.
	Spec topo.MeshSpec
	// LineBytes is the cache line size (fixes cl = 4 + line/4 flits).
	LineBytes int
	// BufferFlits is the input FIFO depth per router port in flits:
	// the paper evaluates 1, 4, and cl. Zero means cl; at most
	// MaxBufferFlits.
	BufferFlits int
}

// MaxBufferFlits caps the input FIFO depth. The paper's deepest buffer
// is cl = 36 flits (128-byte lines); New allocates every FIFO's storage
// up front, so an unbounded depth would let one request ask for
// gigabytes.
const MaxBufferFlits = 256

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Spec.K < 1 {
		return fmt.Errorf("mesh: side %d < 1", c.Spec.K)
	}
	switch c.LineBytes {
	case 16, 32, 64, 128:
	default:
		return fmt.Errorf("mesh: unsupported cache line size %dB (the paper's sizings cover 16, 32, 64 and 128)", c.LineBytes)
	}
	if c.BufferFlits < 0 || c.BufferFlits > MaxBufferFlits {
		return fmt.Errorf("mesh: BufferFlits = %d (want 0 for cl, or 1..%d)", c.BufferFlits, MaxBufferFlits)
	}
	// topo.NewMeshSpec's bound, checked again for a spec built
	// directly: routers hold their slab offset and coordinates in
	// narrow integers.
	if c.Spec.K > topo.MaxPMs/c.Spec.K {
		return fmt.Errorf("mesh: %dx%d exceeds %d PMs", c.Spec.K, c.Spec.K, topo.MaxPMs)
	}
	return nil
}

// bufferFlits resolves the configured depth (0 → cl).
func (c Config) bufferFlits() int {
	if c.BufferFlits == 0 {
		return packet.MeshSizing.CacheLineFlits(c.LineBytes)
	}
	return c.BufferFlits
}

// flit is a buffered mesh flit: its packet, its index in the packet,
// whether it is the packet's tail and, for a head, the output it takes
// at the router that holds it (noPort for a body flit). push fixes out
// from the destination's coordinates, so the tick routes a head
// without following pkt.
type flit struct {
	pkt  *packet.Packet
	idx  int32
	tail bool
	out  int8
}

// head reports whether f is its packet's first (routing) flit.
func (f flit) head() bool { return f.idx == 0 }

// String renders the flit as packet.Flit does, for panics and tests.
func (f flit) String() string { return packet.Flit{Pkt: f.pkt, Index: int(f.idx)}.String() }

// heads is a router's five input heads as decoded at the start of a
// cycle: bit i of req[o] is set when input i's front flit is a packet
// head routed to output o — body flits follow their worm's lock
// instead — and bit o of wanted is set when req[o] is not empty.
type heads struct {
	// req[topo.NumPorts] collects the inputs without a head in front,
	// so that decode needs no branch.
	req    [topo.NumPorts + 1]uint8
	wanted uint8
}

const noPort topo.Direction = -1

// opposite is topo.Direction.Opposite for the four neighbour ports.
var opposite = [topo.Local]topo.Direction{topo.South, topo.North, topo.West, topo.East}

// router is one mesh NIC: a 5x5 crossbar with input buffering. Its
// state packs into four cache lines (TestRouterFootprint bounds the
// size), the first holding the queue headers, port state and injection
// register that decode and an idle router's visit read; link counters
// live on the Network.
type router struct {
	id   int32
	x, y int16 // own position
	// Input i is a ring of depth slots in the network's slab (see
	// slot): its qn[i] buffered flits start at position qh[i] and wrap,
	// and frontOut[i] is the out of its front flit (noPort when it is
	// empty or a body flit), so decode reads no slot.
	qh, qn   [topo.NumPorts]uint16
	frontOut [topo.NumPorts]int8
	// lockedOut has bit o set while outLock[o] holds a worm, so the
	// compute visits only outputs that are locked or requested;
	// stagedOut has bit o set while staged[o] holds a move, so the
	// commit visits only the outputs that carry a flit.
	lockedOut, stagedOut uint8
	// outLockIn[o] is the input whose worm holds output o (see outLock);
	// stagedIn[o] the input staged[o] pops. Both are noPort when unset.
	outLockIn, stagedIn [topo.NumPorts]int8
	// rr[o] is the input output o's round-robin search starts from.
	rr [topo.NumPorts]uint8
	// Injection register: the packet the PM is currently streaming into
	// the local input, the index of its next flit, and whether that flit
	// is staged this cycle.
	injStaged bool
	injIdx    int32
	injPkt    *packet.Packet

	pm node.Port
	// nbr is the neighbour behind each neighbour port, nil at the mesh
	// edge.
	nbr [topo.Local]*router

	// outLock implements wormhole: while a packet is in flight through
	// output o, the crossbar connection from input outLockIn[o] is held.
	outLock [topo.NumPorts]*packet.Packet
	staged  [topo.NumPorts]flit
}

// slot returns the slab index of r's input in's k-th buffered flit, 0
// being its front.
func (n *Network) slot(r *router, in topo.Direction, k int) int {
	s, d := int(r.qh[in])+k, n.depth
	if s >= d {
		s -= d
	}
	return (int(r.id)*int(topo.NumPorts)+int(in))*d + s
}

// space reports whether r's input in has room for a flit.
func (n *Network) space(r *router, in topo.Direction) bool { return int(r.qn[in]) < n.depth }

// queued returns r's input in's k-th buffered flit, 0 being its front.
func (n *Network) queued(r *router, in topo.Direction, k int) flit { return n.slab[n.slot(r, in, k)] }

// push appends f to r's input in, first fixing its out at r. It panics
// when the input is full: callers check space first, so a violation is
// a flow-control bug.
func (n *Network) push(r *router, in topo.Direction, f flit) {
	if !n.space(r, in) {
		panic("mesh: push into full input (flow-control violation)")
	}
	f.out = int8(noPort)
	if f.head() {
		d := n.coord[f.pkt.Dst]
		f.out = int8(topo.ECube(int(r.x), int(r.y), d.x, d.y))
	}
	n.slab[n.slot(r, in, int(r.qn[in]))] = f
	r.qn[in]++
	r.frontOut[in] = n.queued(r, in, 0).out // f's, if the input was empty
}

// pop removes and returns r's input in's front flit. It panics when
// the input is empty.
func (n *Network) pop(r *router, in topo.Direction) flit {
	if r.qn[in] == 0 {
		panic("mesh: pop from empty input")
	}
	i := n.slot(r, in, 0)
	f := n.slab[i]
	n.slab[i] = emptySlot // do not pin the popped packet while the input idles
	if r.qh[in]++; int(r.qh[in]) == n.depth {
		r.qh[in] = 0
	}
	r.qn[in]--
	r.frontOut[in] = n.queued(r, in, 0).out // noPort once the input is empty
	return f
}

// emptySlot is every slab slot that holds no flit, so that the front
// slot's out is noPort exactly when an input is empty or a body flit
// is in front, and push and pop set frontOut without a branch.
var emptySlot = flit{out: int8(noPort)}

// Network is the mesh interconnect as a sim.Component.
type Network struct {
	cfg Config
	// routers is one slab in tick (row-major id) order; routers point
	// at their neighbours inside it, so it never grows.
	routers []router
	// slab is every input's storage, router by router and port by port,
	// depth slots each.
	slab  []flit
	depth int
	// coord is each PM id's (x, y): with a router's own position, all
	// that routing a packet head needs.
	coord  []struct{ x, y int }
	engine *sim.Engine
	// tracer is the optional lifecycle recorder; labels holds each
	// router's per-port "where" strings, built once when a recorder is
	// attached so that no event formats one.
	tracer *trace.Recorder
	labels [][topo.NumPorts]string

	// linkUtil[id][o] counts flits router id sent on its outgoing
	// neighbour link o; cycles counts the capacity. It is kept off the
	// routers, whose lines the tick reads every cycle; Links lists the
	// counters of the links that exist by direction, so edge slots
	// count no capacity.
	linkUtil [][topo.Local]int64
	// cycles counts the mesh's cycles: the clock every link's
	// utilization takes its capacity from.
	cycles int64
	// turns counts e-cube dimension turns: head flits leaving an
	// east/west input through a north/south output (mesh_ecube_turns).
	turns int64
	// pending is a bitset over routers: bit id is router id's PM's
	// pending signal (node.Port.BindPending), set while the PM holds a
	// packet for the injection register.
	pending []uint64
}

// SetTracer attaches an optional lifecycle recorder (nil-safe).
func (n *Network) SetTracer(t *trace.Recorder) {
	n.tracer, n.labels = t, nil
	if t == nil {
		return
	}
	n.labels = make([][topo.NumPorts]string, len(n.routers))
	for id := range n.labels {
		for o := topo.Direction(0); o < topo.NumPorts; o++ {
			n.labels[id][o] = fmt.Sprintf("router%d %s", id, o)
		}
	}
}

// New builds the mesh network connecting the given PMs (len must be
// Spec.PMs()).
func New(cfg Config, pms []node.Port, engine *sim.Engine) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(pms) != cfg.Spec.PMs() {
		return nil, fmt.Errorf("mesh: %d PMs supplied for %s (%d)",
			len(pms), cfg.Spec, cfg.Spec.PMs())
	}
	depth := cfg.bufferFlits()
	n := &Network{cfg: cfg, engine: engine, routers: make([]router, len(pms))}
	n.coord = make([]struct{ x, y int }, len(pms))
	n.pending = make([]uint64, (len(pms)+63)/64)
	n.linkUtil = make([][topo.Local]int64, len(pms))
	n.slab, n.depth = make([]flit, len(pms)*int(topo.NumPorts)*depth), depth
	for i := range n.slab {
		n.slab[i] = emptySlot
	}
	for id := range n.routers {
		r := &n.routers[id]
		r.id, r.pm = int32(id), pms[id]
		pms[id].BindPending(&n.pending[id/64], 1<<(id%64))
		x, y := cfg.Spec.Coord(id)
		r.x, r.y = int16(x), int16(y)
		n.coord[id].x, n.coord[id].y = x, y
		for p := range r.outLockIn {
			r.frontOut[p], r.outLockIn[p], r.stagedIn[p] = int8(noPort), int8(noPort), int8(noPort)
		}
		for o := topo.Direction(0); o < topo.Local; o++ {
			if nb := cfg.Spec.Neighbor(id, o); nb >= 0 {
				r.nbr[o] = &n.routers[nb]
			}
		}
	}
	return n, nil
}

// Compute implements sim.Component: stage every router's crossbar
// transfers and PM injections from start-of-cycle state.
func (n *Network) Compute(int64) {
	for i := range n.routers {
		n.computeRouter(&n.routers[i])
	}
}

// decode reads r's five front routes once from start-of-cycle state,
// entering each front head in the request mask of the output push fixed
// for it, and reports whether any input holds a flit. h must be zero on
// entry.
func (r *router) decode(h *heads) (busy bool) {
	for i := topo.Direction(0); i < topo.NumPorts; i++ {
		o := min(uint8(r.frontOut[i]), uint8(topo.NumPorts)) // noPort → the spare slot
		h.req[o] |= 1 << i
		h.wanted |= 1 << o
	}
	h.wanted &= 1<<topo.NumPorts - 1
	return r.qn[0]|r.qn[1]|r.qn[2]|r.qn[3]|r.qn[4] != 0
}

// pickMove returns the flit output o would carry this cycle and the
// input it comes from, judged from the decoded start-of-cycle heads. It
// is pure, so the stall forensics can re-ask the same question the
// switching logic asks.
func (n *Network) pickMove(r *router, h *heads, o topo.Direction) (in topo.Direction, f flit, ok bool) {
	if lock := r.outLock[o]; lock != nil {
		// Continue the locked worm; bubbles keep the lock.
		i := topo.Direction(r.outLockIn[o])
		if r.qn[i] == 0 {
			return -1, flit{}, false
		}
		if f = n.queued(r, i, 0); f.pkt != lock {
			panic(fmt.Sprintf("mesh: router %d would interleave %s into %s",
				r.id, f.pkt, lock))
		}
		return i, f, true
	}
	req := h.req[o]
	if req == 0 {
		return -1, flit{}, false
	}
	// Round-robin arbitration among the requesting inputs: the first
	// one at or after rr[o], wrapping to the lowest.
	if late := req >> r.rr[o] << r.rr[o]; late != 0 {
		req = late
	}
	i := topo.Direction(bits.TrailingZeros8(req))
	return i, n.queued(r, i, 0), true
}

// computeRouter stages r's crossbar transfers and injection. r.staged
// is all clear on entry — commitRouter clears every move it applies —
// so a router holding no flits stages nothing after the decode, and
// only outputs that are requested or locked can carry a flit.
func (n *Network) computeRouter(r *router) {
	var h heads
	if r.decode(&h) {
		for live := h.wanted | r.lockedOut; live != 0; live &= live - 1 {
			o := topo.Direction(bits.TrailingZeros8(live))
			in, f, ok := n.pickMove(r, &h, o)
			if !ok {
				continue
			}
			// Downstream acceptance; ejection to the PM always succeeds
			// (perfect sink).
			if o != topo.Local {
				nb := r.nbr[o]
				if nb == nil {
					panic(fmt.Sprintf("mesh: router %d routed %s off the edge (%s)",
						r.id, f.pkt, o))
				}
				if !n.space(nb, opposite[o]) {
					continue
				}
			}
			r.staged[o], r.stagedIn[o] = f, int8(in)
			r.stagedOut |= 1 << o
		}
	}

	// Injection: stream the current packet into the local input, one
	// flit per cycle.
	r.injStaged = r.injPkt != nil && n.space(r, topo.Local)
}

// Commit implements sim.Component: apply every router's staged
// transfers and advance the link clock. Progress is reported to the
// engine once per commit (batched) rather than per flit movement.
func (n *Network) Commit(now int64) {
	n.cycles++
	moved := 0
	for i := range n.routers {
		moved += n.commitRouter(&n.routers[i], now)
	}
	if moved > 0 {
		n.engine.ProgressN(moved)
	}
}

// commitRouter applies one router's staged transfers and returns the
// number of flit movements (crossbar transfers plus injections).
func (n *Network) commitRouter(r *router, now int64) (moved int) {
	for mask := r.stagedOut; mask != 0; mask &= mask - 1 {
		o := topo.Direction(bits.TrailingZeros8(mask))
		f, in := r.staged[o], topo.Direction(r.stagedIn[o])
		r.staged[o], r.stagedIn[o] = flit{}, int8(noPort)
		if got := n.pop(r, in); got != f {
			panic(fmt.Sprintf("mesh: router %d staged %s but popped %s", r.id, f, got))
		}
		// Lock maintenance and round-robin advance.
		if f.head() && !f.tail {
			r.outLock[o] = f.pkt
			r.outLockIn[o] = int8(in)
			r.lockedOut |= 1 << o
		}
		if f.tail {
			r.outLock[o] = nil
			r.outLockIn[o] = int8(noPort)
			r.lockedOut &^= 1 << o
		}
		if f.head() {
			r.rr[o] = uint8(in+1) % uint8(topo.NumPorts)
			if (in == topo.East || in == topo.West) && (o == topo.North || o == topo.South) {
				n.turns++
			}
		}
		// Deposit.
		if o == topo.Local {
			if f.tail {
				r.pm.Deliver(f.pkt, now, false)
			}
		} else {
			if n.tracer != nil && f.head() {
				n.tracer.Record(now, trace.Hop, f.pkt, n.labels[r.id][o])
			}
			n.push(r.nbr[o], opposite[o], f)
			n.linkUtil[r.id][o]++
		}
		moved++
	}
	r.stagedOut = 0

	// Apply injection, then reload the injection register so a fresh
	// packet (possibly issued by the PM's commit earlier this tick)
	// starts streaming next cycle. The PM's pending bit says whether
	// it has one; the port is asked only then.
	if r.injStaged {
		f := flit{pkt: r.injPkt, idx: r.injIdx, tail: int(r.injIdx) == r.injPkt.Flits-1}
		if n.tracer != nil && f.head() {
			n.tracer.Record(now, trace.Inject, f.pkt, n.labels[r.id][topo.Local])
		}
		n.push(r, topo.Local, f)
		if r.injIdx++; f.tail {
			r.injPkt, r.injIdx = nil, 0
		}
		r.injStaged = false
		moved++
	}
	if id := uint32(r.id); r.injPkt == nil && n.pending[id/64]&(1<<(id%64)) != 0 {
		if p, ok := r.pm.TakeResponse(); ok {
			r.injPkt, r.injIdx = p, 0
		} else if p, ok := r.pm.TakeRequest(); ok {
			r.injPkt, r.injIdx = p, 0
		}
	}
	return moved
}

// Links implements network.Model: one group per direction of the
// routers' outgoing links that exist, whose merged busy over capacity
// is the paper's "percent of maximum network utilization" for meshes.
func (n *Network) Links() []sim.LinkGroup {
	groups := make([]sim.LinkGroup, 0, topo.Local)
	for o := topo.Direction(0); o < topo.Local; o++ {
		g := sim.LinkGroup{Label: o.String(), Clock: &n.cycles}
		for i := range n.routers {
			if n.routers[i].nbr[o] != nil {
				g.Busy = append(g.Busy, &n.linkUtil[i][o])
			}
		}
		groups = append(groups, g)
	}
	return groups
}

// DescribeMetrics registers the mesh's instruments:
//
//   - mesh_input_buffer_flits{queue=<direction>}: total input-FIFO
//     occupancy per port direction across the mesh, read only at
//     sample time.
//   - mesh_ecube_turns: head flits turning from the X dimension into
//     the Y dimension.
//
// Every instrument reads state the tick keeps anyway.
func (n *Network) DescribeMetrics(reg *metrics.Registry) {
	for o := topo.Direction(0); o < topo.NumPorts; o++ {
		o := o
		reg.Gauge("mesh_input_buffer_flits", metrics.Labels{Queue: o.String()},
			func() float64 {
				total := 0
				for i := range n.routers {
					total += int(n.routers[i].qn[o])
				}
				return float64(total)
			})
	}
	reg.CounterFunc("mesh_ecube_turns", metrics.Labels{}, func() int64 { return n.turns })
}

// BufferedFlits counts flits resident in all router input FIFOs plus
// partially injected packets' remaining flits (for tests and liveness
// accounting).
func (n *Network) BufferedFlits() int {
	total := 0
	for i := range n.routers {
		r := &n.routers[i]
		for p := topo.Direction(0); p < topo.NumPorts; p++ {
			total += int(r.qn[p])
		}
		if r.injPkt != nil {
			total += r.injPkt.Flits - int(r.injIdx)
		}
	}
	return total
}

// CheckInvariants returns an error if any input holds more flits than
// its depth, a queued flit's out is not the e-cube route from the
// router holding it (noPort for a body flit), an input's frontOut is
// not its front flit's out, an output's lock bit disagrees with its
// lock, a PM's pending bit disagrees with its pending state or,
// between ticks, a router still holds a staged move or input.
func (n *Network) CheckInvariants() error {
	for i := range n.routers {
		r := &n.routers[i]
		if set := n.pending[i/64]&(1<<(i%64)) != 0; !node.PendingAgrees(r.pm, set) {
			return fmt.Errorf("mesh: router %d pending bit %v disagrees with its PM", r.id, set)
		}
		for p := topo.Direction(0); p < topo.NumPorts; p++ {
			if int(r.qn[p]) > n.depth {
				return fmt.Errorf("mesh: router %d input %s over capacity", r.id, p)
			}
			front := noPort
			for k := 0; k < int(r.qn[p]); k++ {
				f, want := n.queued(r, p, k), noPort
				if f.head() {
					d := n.coord[f.pkt.Dst]
					want = topo.ECube(int(r.x), int(r.y), d.x, d.y)
				}
				if topo.Direction(f.out) != want {
					return fmt.Errorf("mesh: router %d input %s holds %s routed %s, e-cube says %s",
						r.id, p, f, topo.Direction(f.out), want)
				}
				if k == 0 {
					front = want
				}
			}
			if topo.Direction(r.frontOut[p]) != front {
				return fmt.Errorf("mesh: router %d input %s front route %s, its front flit's %s",
					r.id, p, topo.Direction(r.frontOut[p]), front)
			}
			if (r.outLock[p] != nil) != (r.lockedOut&(1<<p) != 0) {
				return fmt.Errorf("mesh: router %d output %s lock bit disagrees with its lock", r.id, p)
			}
			if r.staged[p] != (flit{}) {
				return fmt.Errorf("mesh: router %d output %s kept a staged move past its tick", r.id, p)
			}
			if r.stagedIn[p] != int8(noPort) {
				return fmt.Errorf("mesh: router %d output %s kept its staged input %s past its tick",
					r.id, p, topo.Direction(r.stagedIn[p]))
			}
		}
		if r.stagedOut != 0 || r.injStaged {
			return fmt.Errorf("mesh: router %d kept staged state past its tick (mask %05b)", r.id, r.stagedOut)
		}
	}
	return nil
}
