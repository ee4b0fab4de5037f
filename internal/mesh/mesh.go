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
	// the paper evaluates 1, 4, and cl. Zero means cl.
	BufferFlits int
}

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
	if c.BufferFlits < 0 {
		return fmt.Errorf("mesh: BufferFlits = %d", c.BufferFlits)
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
// cycle. f[i].Pkt is nil when input i is empty; want[i] is the output a
// packet head is routed to — noPort for an empty input and for body
// flits, which follow their worm's lock instead — and bit o of wanted
// is set when some packet head wants output o.
type heads struct {
	f      [topo.NumPorts]packet.Flit
	want   [topo.NumPorts]topo.Direction
	wanted uint
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
	// outLockIn[o] is held.
	outLock   [topo.NumPorts]*packet.Packet
	outLockIn [topo.NumPorts]topo.Direction
	rr        [topo.NumPorts]int
	staged    [topo.NumPorts]move

	// Injection register: the packet the PM is currently streaming
	// into the local input FIFO.
	injPkt    *packet.Packet
	injIdx    int
	stagedInj move

	pm node.Port

	// flt is the installed per-port fault state; nil (the common
	// case) costs one pointer check per router per cycle. See
	// fault.go.
	flt *rtrFault

	// linkUtil counts flits sent on each of this router's outgoing
	// neighbour links, per direction (capacity accrues only for links
	// that exist; the Local slot stays unused). Keeping the split by
	// direction is what the metrics registry exports; the aggregate
	// Utilization() view merges them.
	linkUtil [topo.NumPorts]stats.Utilization
}

// Network is the mesh interconnect as a sim.Component.
type Network struct {
	cfg     Config
	routers []*router
	// coord is each PM id's (x, y): with the router's own position, all
	// that routing a packet head needs.
	coord  []struct{ x, y int }
	engine *sim.Engine
	// tracer is the optional lifecycle recorder; labels holds each
	// router's per-port "where" strings, built once when a recorder is
	// attached so that no event formats one.
	tracer *trace.Recorder
	labels [][topo.NumPorts]string

	// faults is the installed fault schedule; nil for fault-free runs.
	faults *fault.Driver

	// turns, when non-nil (metrics enabled), counts e-cube dimension
	// turns: head flits leaving an east/west input through a
	// north/south output.
	turns *metrics.Counter
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
	n := &Network{cfg: cfg, engine: engine}
	depth := cfg.bufferFlits()
	n.coord = make([]struct{ x, y int }, cfg.Spec.PMs())
	for id := range n.coord {
		r := &router{id: id, pm: pms[id]}
		r.x, r.y = cfg.Spec.Coord(id)
		n.coord[id].x, n.coord[id].y = r.x, r.y
		for p := topo.Direction(0); p < topo.NumPorts; p++ {
			r.inputs[p] = *packet.NewFIFO(depth)
			r.outLockIn[p] = -1
		}
		n.routers = append(n.routers, r)
	}
	for _, r := range n.routers {
		for o := topo.Direction(0); o < topo.Local; o++ {
			if nb := cfg.Spec.Neighbor(r.id, o); nb >= 0 {
				r.nbr[o] = n.routers[nb]
			}
		}
	}
	return n, nil
}

// Compute implements sim.Component: stage every router's crossbar
// transfers and PM injections from start-of-cycle state.
func (n *Network) Compute(now int64) {
	if n.faults != nil {
		n.faults.Step(now)
	}
	for _, r := range n.routers {
		n.computeRouter(r, now)
	}
}

// decode reads r's five input heads once from start-of-cycle state,
// routing each packet head, and reports whether any input holds a flit.
func (n *Network) decode(r *router, h *heads) (busy bool) {
	for i := range h.f {
		f, _ := r.inputs[i].Peek()
		h.f[i], h.want[i] = f, noPort
		if f.Pkt == nil {
			continue
		}
		busy = true
		if f.Head() {
			d := n.coord[f.Pkt.Dst]
			h.want[i] = topo.ECube(r.x, r.y, d.x, d.y)
			h.wanted |= 1 << h.want[i]
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
	if h.wanted&(1<<o) == 0 {
		return -1, packet.Flit{}, false
	}
	// Round-robin arbitration among inputs whose head flit is a packet
	// head routed to this output (wanted says there is one).
	for i := topo.Direction(r.rr[o]); ; i = (i + 1) % topo.NumPorts {
		if h.want[i] == o {
			return i, h.f[i], true
		}
	}
}

// computeRouter stages r's crossbar transfers and injection. r.staged
// is all clear on entry — commitRouter clears every move it applies —
// so a router holding no flits stages nothing after the decode.
func (n *Network) computeRouter(r *router, now int64) {
	if r.flt != nil && now >= r.flt.maxUntil {
		r.flt = nil // every fault window has passed
	}
	var h heads
	if n.decode(r, &h) {
		for o := topo.Direction(0); o < topo.NumPorts; o++ {
			if r.flt != nil && r.flt.blocked(o, now) {
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
	for _, r := range n.routers {
		moved += n.commitRouter(r, now, nil)
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
	for o := topo.Direction(0); o < topo.NumPorts; o++ {
		nb := r.nbr[o]
		if nb != nil {
			r.linkUtil[o].Tick(1)
		}
		mv := r.staged[o]
		if !mv.ok {
			continue
		}
		r.staged[o] = move{}
		got := r.inputs[mv.in].Pop()
		if got != mv.f {
			panic(fmt.Sprintf("mesh: router %d staged %s but popped %s", r.id, mv.f, got))
		}
		// Lock maintenance and round-robin advance.
		if mv.f.Head() && !mv.f.Tail() {
			r.outLock[o] = mv.f.Pkt
			r.outLockIn[o] = mv.in
		}
		if mv.f.Tail() {
			r.outLock[o] = nil
			r.outLockIn[o] = -1
		}
		if mv.f.Head() {
			r.rr[o] = (int(mv.in) + 1) % int(topo.NumPorts)
			if n.turns != nil &&
				(mv.in == topo.East || mv.in == topo.West) &&
				(o == topo.North || o == topo.South) {
				n.turns.Inc()
			}
		}
		// Deposit.
		if o == topo.Local {
			if mv.f.Tail() {
				r.pm.Deliver(mv.f.Pkt, now)
			}
		} else {
			if n.tracer != nil && mv.f.Head() {
				n.tracer.Record(now, trace.Hop, mv.f.Pkt, n.labels[r.id][o])
			}
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
	if r.injPkt == nil {
		if p, ok := r.pm.PendingResponse(); ok {
			r.pm.PopPendingResponse()
			r.injPkt, r.injIdx = p, 0
		} else if p, ok := r.pm.PendingRequest(); ok {
			r.pm.PopPendingRequest()
			r.injPkt, r.injIdx = p, 0
		}
	}
	return moved
}

// Utilization returns aggregate inter-router link utilization in
// [0, 1] — busy link-cycles over available link-cycles, the paper's
// "percent of maximum network utilization" for meshes. It merges the
// same per-direction counters the metrics registry exports, so the
// aggregate and the per-direction series always agree.
func (n *Network) Utilization() float64 {
	var u stats.Utilization
	for _, r := range n.routers {
		for o := topo.Direction(0); o < topo.NumPorts; o++ {
			u.Merge(&r.linkUtil[o])
		}
	}
	return u.Value()
}

// ResetUtilization clears link counters (warmup end).
func (n *Network) ResetUtilization() {
	for _, r := range n.routers {
		for o := topo.Direction(0); o < topo.NumPorts; o++ {
			r.linkUtil[o].Reset()
		}
	}
}

// DescribeMetrics registers the mesh's instruments:
//
//   - mesh_link_util{link=north|east|south|west}: per-direction link
//     utilization aggregated across routers, backed by the existing
//     per-router counters (no new hot-path work).
//   - mesh_input_buffer_flits{queue=<direction>}: total input-FIFO
//     occupancy per port direction across the mesh, read only at
//     sample time.
//   - mesh_ecube_turns: head flits turning from the X dimension into
//     the Y dimension (counted only while a registry is attached).
//
// Nil-safe: a nil registry registers nothing and leaves the hot path
// unchanged.
func (n *Network) DescribeMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for o := topo.Direction(0); o < topo.NumPorts; o++ {
		if o == topo.Local {
			continue
		}
		backing := make([]*stats.Utilization, 0, len(n.routers))
		for _, r := range n.routers {
			if n.cfg.Spec.Neighbor(r.id, o) >= 0 {
				backing = append(backing, &r.linkUtil[o])
			}
		}
		reg.Ratio("mesh_link_util", metrics.Labels{Link: o.String()}, backing...)
	}
	for o := topo.Direction(0); o < topo.NumPorts; o++ {
		o := o
		reg.Gauge("mesh_input_buffer_flits", metrics.Labels{Queue: o.String()},
			func() float64 {
				total := 0
				for _, r := range n.routers {
					total += r.inputs[o].Len()
				}
				return float64(total)
			})
	}
	n.turns = reg.Counter("mesh_ecube_turns", metrics.Labels{})
	if n.faults != nil {
		n.faults.Counter = reg.Counter("fault_events_total", metrics.Labels{})
	}
}

// BufferedFlits counts flits resident in all router input FIFOs plus
// partially injected packets' remaining flits (for tests and liveness
// accounting).
func (n *Network) BufferedFlits() int {
	total := 0
	for _, r := range n.routers {
		for p := topo.Direction(0); p < topo.NumPorts; p++ {
			total += r.inputs[p].Len()
		}
		if r.injPkt != nil {
			total += r.injPkt.Flits - r.injIdx
		}
	}
	return total
}

// CheckInvariants returns an error if any buffer exceeds capacity.
func (n *Network) CheckInvariants() error {
	for _, r := range n.routers {
		for p := topo.Direction(0); p < topo.NumPorts; p++ {
			if r.inputs[p].Len() > r.inputs[p].Cap() {
				return fmt.Errorf("mesh: router %d input %s over capacity", r.id, p)
			}
		}
	}
	return nil
}
