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

	"ringmesh/internal/fault"
	"ringmesh/internal/metrics"
	"ringmesh/internal/node"
	"ringmesh/internal/packet"
	"ringmesh/internal/sim"
	"ringmesh/internal/stats"
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
	return nil
}

// bufferFlits resolves the configured depth (0 → cl).
func (c Config) bufferFlits() int {
	if c.BufferFlits == 0 {
		return packet.MeshSizing.CacheLineFlits(c.LineBytes)
	}
	return c.BufferFlits
}

// move is a staged crossbar transfer for one output port.
type move struct {
	ok bool
	in topo.Direction
	f  packet.Flit
}

// heads is a router's five input heads as decoded at the start of a
// cycle. f[i].Pkt is nil when input i is empty. Bit i of req[o] is set
// when input i holds a packet head routed to output o — body flits
// follow their worm's lock instead — and bit o of wanted is set when
// req[o] is not empty.
type heads struct {
	f      [topo.NumPorts]packet.Flit
	req    [topo.NumPorts]uint8
	wanted uint8
}

const noPort topo.Direction = -1

// opposite is topo.Direction.Opposite for the four neighbour ports.
var opposite = [topo.Local]topo.Direction{topo.South, topo.North, topo.West, topo.East}

// router is one mesh NIC: a 5x5 crossbar with input buffering.
type router struct {
	id int
	// Geometry fixed at build time, so the tick never divides: own
	// position (y is also the owning row shard) and the neighbour behind
	// each output port, nil at the mesh edge and for Local.
	x, y   int
	nbr    [topo.NumPorts]*router
	inputs [topo.NumPorts]packet.FIFO
	// outLock / outLockIn implement wormhole: while a packet is in
	// flight through output o, the crossbar connection from input
	// outLockIn[o] is held, and bit o of lockedOut is set, so the
	// compute visits only outputs that are locked or requested.
	outLock   [topo.NumPorts]*packet.Packet
	outLockIn [topo.NumPorts]topo.Direction
	lockedOut uint8
	// rr[o] is the input output o's round-robin search starts from.
	rr     [topo.NumPorts]uint8
	staged [topo.NumPorts]move
	// stagedOut has bit o set while staged[o] holds a move, so the
	// commit visits only the outputs that carry a flit.
	stagedOut uint8

	// Injection register: the packet the PM is currently streaming
	// into the local input FIFO.
	injPkt    *packet.Packet
	injIdx    int
	stagedInj move

	pm node.Port

	// flt holds the router's fault gates, one per output in
	// topo.Direction order; nil (the common case) costs one pointer
	// check per compute.
	flt *fault.Gates

	// linkUtil counts flits sent on each of this router's outgoing
	// neighbour links, per direction, against the mesh clock
	// (Network.cycles; only links that exist are bound to it, so the
	// Local slot and edge slots accrue no capacity). Links lists the
	// bound ones by direction.
	linkUtil [topo.NumPorts]stats.Utilization
	// turns counts e-cube dimension turns: head flits leaving an
	// east/west input through a north/south output. Kept per router
	// because row shards commit concurrently; exported summed as
	// mesh_ecube_turns.
	turns int64
}

// Network is the mesh interconnect as a sim.Component.
type Network struct {
	cfg Config
	// routers is one slab in tick (row-major id) order; routers point
	// at their neighbours inside it, so it never grows.
	routers []router
	// coord is each PM id's (x, y): with the router's own position, all
	// that routing a packet head needs.
	coord  []struct{ x, y int }
	engine *sim.Engine
	// tracer is the optional lifecycle recorder; labels holds each
	// router's per-port "where" strings, built once when a recorder is
	// attached so that no event formats one.
	tracer *trace.Recorder
	labels [][topo.NumPorts]string

	// cycles counts the mesh's cycles: the clock every link's
	// utilization takes its capacity from.
	cycles int64
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
	// Every input FIFO's storage, router by router and port by port.
	slab := make([]packet.Flit, len(pms)*int(topo.NumPorts)*depth)
	for id := range n.routers {
		r := &n.routers[id]
		r.id, r.pm = id, pms[id]
		r.x, r.y = cfg.Spec.Coord(id)
		n.coord[id].x, n.coord[id].y = r.x, r.y
		for p := range r.inputs {
			r.inputs[p] = packet.FIFOOver(slab[:depth:depth])
			slab = slab[depth:]
			r.outLockIn[p] = noPort
		}
		for o := topo.Direction(0); o < topo.Local; o++ {
			if nb := cfg.Spec.Neighbor(id, o); nb >= 0 {
				r.nbr[o] = &n.routers[nb]
				r.linkUtil[o].Bind(&n.cycles)
			}
		}
	}
	return n, nil
}

// Compute implements sim.Component: stage every router's crossbar
// transfers and PM injections from start-of-cycle state.
func (n *Network) Compute(now int64) {
	n.begin(now)
	for i := range n.routers {
		n.computeRouter(&n.routers[i], now)
	}
}

// begin opens a cycle: it advances the link clock. The parallel
// partition runs it as its serial prologue.
func (n *Network) begin(int64) { n.cycles++ }

// decode reads r's five input heads once from start-of-cycle state,
// routing each packet head into its output's request mask, and reports
// whether any input holds a flit. h must be zero on entry.
func (n *Network) decode(r *router, h *heads) (busy bool) {
	for i := range h.f {
		f, _ := r.inputs[i].Peek()
		if f.Pkt == nil {
			continue
		}
		h.f[i], busy = f, true
		if f.Head() {
			d := n.coord[f.Pkt.Dst]
			o := topo.ECube(r.x, r.y, d.x, d.y)
			h.req[o] |= 1 << i
			h.wanted |= 1 << o
		}
	}
	return busy
}

// pickMove returns the flit output o would carry this cycle and the
// input it comes from, judged from the decoded start-of-cycle heads. It
// is pure, so the stall forensics can re-ask the same question the
// switching logic asks.
func (r *router) pickMove(h *heads, o topo.Direction) (in topo.Direction, f packet.Flit, ok bool) {
	if lock := r.outLock[o]; lock != nil {
		// Continue the locked worm; bubbles keep the lock.
		i := r.outLockIn[o]
		if h.f[i].Pkt == nil {
			return -1, packet.Flit{}, false
		}
		if h.f[i].Pkt != lock {
			panic(fmt.Sprintf("mesh: router %d would interleave %s into %s",
				r.id, h.f[i].Pkt, lock))
		}
		return i, h.f[i], true
	}
	req := h.req[o]
	if req == 0 {
		return -1, packet.Flit{}, false
	}
	// Round-robin arbitration among the requesting inputs: the first
	// one at or after rr[o], wrapping to the lowest.
	if late := req >> r.rr[o] << r.rr[o]; late != 0 {
		req = late
	}
	i := topo.Direction(bits.TrailingZeros8(req))
	return i, h.f[i], true
}

// computeRouter stages r's crossbar transfers and injection. r.staged
// is all clear on entry — commitRouter clears every move it applies —
// so a router holding no flits stages nothing after the decode, and
// only outputs that are requested or locked can carry a flit.
func (n *Network) computeRouter(r *router, now int64) {
	var h heads
	if flt := r.flt; n.decode(r, &h) {
		for live := h.wanted | r.lockedOut; live != 0; live &= live - 1 {
			o := topo.Direction(bits.TrailingZeros8(live))
			if flt != nil && flt[o].Blocked(now, now) {
				continue // this output port is faulted this cycle
			}
			in, f, ok := r.pickMove(&h, o)
			if !ok {
				continue
			}
			// Downstream acceptance; ejection to the PM always succeeds
			// (perfect sink).
			if o != topo.Local {
				nb := r.nbr[o]
				if nb == nil {
					panic(fmt.Sprintf("mesh: router %d routed %s off the edge (%s)",
						r.id, f.Pkt, o))
				}
				if nb.inputs[opposite[o]].Space() < 1 {
					continue
				}
			}
			r.staged[o] = move{ok: true, in: in, f: f}
			r.stagedOut |= 1 << o
		}
	}

	// Injection: stream the current packet into the local input FIFO,
	// one flit per cycle.
	if r.injPkt != nil && r.inputs[topo.Local].Space() >= 1 {
		r.stagedInj = move{ok: true, f: packet.Flit{Pkt: r.injPkt, Index: r.injIdx}}
	}
}

// Commit implements sim.Component. Progress is reported to the
// engine once per commit (batched) rather than per flit movement.
func (n *Network) Commit(now int64) {
	moved := 0
	for i := range n.routers {
		moved += n.commitRouter(&n.routers[i], now, nil)
	}
	if moved > 0 {
		n.engine.ProgressN(moved)
	}
}

// commitRouter applies one router's staged transfers and returns the
// number of flit movements (crossbar transfers plus injections). sh is
// nil on the serial path; under the parallel partition it is the
// committing row shard, and pushes into a router another shard owns
// are staged in the shard's outbox instead of performed (see
// partition.go) — everything else is byte-for-byte the serial commit.
func (n *Network) commitRouter(r *router, now int64, sh *rowShard) (moved int) {
	for mask := r.stagedOut; mask != 0; mask &= mask - 1 {
		o := topo.Direction(bits.TrailingZeros8(mask))
		mv := r.staged[o]
		r.staged[o] = move{}
		got := r.inputs[mv.in].Pop()
		if got != mv.f {
			panic(fmt.Sprintf("mesh: router %d staged %s but popped %s", r.id, mv.f, got))
		}
		// Lock maintenance and round-robin advance.
		if mv.f.Head() && !mv.f.Tail() {
			r.outLock[o] = mv.f.Pkt
			r.outLockIn[o] = mv.in
			r.lockedOut |= 1 << o
		}
		if mv.f.Tail() {
			r.outLock[o] = nil
			r.outLockIn[o] = noPort
			r.lockedOut &^= 1 << o
		}
		if mv.f.Head() {
			r.rr[o] = uint8(mv.in+1) % uint8(topo.NumPorts)
			if (mv.in == topo.East || mv.in == topo.West) && (o == topo.North || o == topo.South) {
				r.turns++
			}
		}
		// Deposit.
		if o == topo.Local {
			if mv.f.Tail() {
				r.pm.Deliver(mv.f.Pkt, now, false)
			}
		} else {
			if n.tracer != nil && mv.f.Head() {
				n.tracer.Record(now, trace.Hop, mv.f.Pkt, n.labels[r.id][o])
			}
			nb := r.nbr[o]
			dst := &nb.inputs[opposite[o]]
			if sh != nil && nb.y != sh.row {
				sh.outbox = append(sh.outbox, deferredPush{fifo: dst, f: mv.f})
			} else {
				dst.Push(mv.f)
			}
			r.linkUtil[o].Busy(1)
		}
		moved++
	}
	r.stagedOut = 0

	// Apply injection, then reload the injection register so a fresh
	// packet (possibly issued by the PM's commit earlier this tick)
	// starts streaming next cycle.
	if r.stagedInj.ok {
		if n.tracer != nil && r.stagedInj.f.Head() {
			n.tracer.Record(now, trace.Inject, r.stagedInj.f.Pkt, n.labels[r.id][topo.Local])
		}
		r.inputs[topo.Local].Push(r.stagedInj.f)
		r.injIdx++
		if r.injIdx == r.injPkt.Flits {
			r.injPkt, r.injIdx = nil, 0
		}
		r.stagedInj = move{}
		moved++
	}
	if r.injPkt == nil && r.pm.HasPending() {
		if p, ok := r.pm.TakeResponse(); ok {
			r.injPkt, r.injIdx = p, 0
		} else if p, ok := r.pm.TakeRequest(); ok {
			r.injPkt, r.injIdx = p, 0
		}
	}
	return moved
}

// Links implements network.Model: one group per direction of the
// routers' bound outgoing links, whose merged busy over capacity is the
// paper's "percent of maximum network utilization" for meshes.
func (n *Network) Links() []sim.LinkGroup {
	groups := make([]sim.LinkGroup, 0, topo.Local)
	for o := topo.Direction(0); o < topo.Local; o++ {
		g := sim.LinkGroup{Label: o.String()}
		for i := range n.routers {
			if r := &n.routers[i]; r.nbr[o] != nil {
				g.Links = append(g.Links, &r.linkUtil[o])
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
//     the Y dimension, summed over the routers' counts.
//
// Every instrument reads state the tick keeps anyway.
func (n *Network) DescribeMetrics(reg *metrics.Registry) {
	for o := topo.Direction(0); o < topo.NumPorts; o++ {
		o := o
		reg.Gauge("mesh_input_buffer_flits", metrics.Labels{Queue: o.String()},
			func() float64 {
				total := 0
				for i := range n.routers {
					total += n.routers[i].inputs[o].Len()
				}
				return float64(total)
			})
	}
	reg.CounterFunc("mesh_ecube_turns", metrics.Labels{}, func() int64 {
		var total int64
		for i := range n.routers {
			total += n.routers[i].turns
		}
		return total
	})
}

// BufferedFlits counts flits resident in all router input FIFOs plus
// partially injected packets' remaining flits (for tests and liveness
// accounting).
func (n *Network) BufferedFlits() int {
	total := 0
	for i := range n.routers {
		r := &n.routers[i]
		for p := topo.Direction(0); p < topo.NumPorts; p++ {
			total += r.inputs[p].Len()
		}
		if r.injPkt != nil {
			total += r.injPkt.Flits - r.injIdx
		}
	}
	return total
}

// CheckInvariants returns an error if any buffer exceeds capacity, an
// output's lock bit disagrees with its lock or, between ticks, a router
// still holds a staged move.
func (n *Network) CheckInvariants() error {
	for i := range n.routers {
		r := &n.routers[i]
		for p := topo.Direction(0); p < topo.NumPorts; p++ {
			if r.inputs[p].Len() > r.inputs[p].Cap() {
				return fmt.Errorf("mesh: router %d input %s over capacity", r.id, p)
			}
			if (r.outLock[p] != nil) != (r.lockedOut&(1<<p) != 0) {
				return fmt.Errorf("mesh: router %d output %s lock bit disagrees with its lock", r.id, p)
			}
			if r.staged[p] != (move{}) {
				return fmt.Errorf("mesh: router %d output %s kept a staged move past its tick", r.id, p)
			}
		}
		if r.stagedOut != 0 || r.stagedInj != (move{}) {
			return fmt.Errorf("mesh: router %d kept staged state past its tick (mask %05b)", r.id, r.stagedOut)
		}
	}
	return nil
}
