package ring

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

// Config parameterizes a hierarchical ring network.
type Config struct {
	// Spec is the ring hierarchy ("2:3:4" etc.).
	Spec topo.RingSpec
	// LineBytes is the cache line size; it fixes cl, the size in
	// flits of every ring buffer (paper: each NIC/IRI buffer holds
	// exactly one cache-line packet).
	LineBytes int
	// DoubleSpeedGlobal clocks the global ring at twice the speed of
	// all other rings and the PMs (paper Section 6): the network runs
	// the global ring's second cycle of every PM cycle at the end of
	// its commit.
	DoubleSpeedGlobal bool
	// IRIQueueFlits overrides the capacity of the IRI up/down queues
	// (per class) in flits; 0 means cl, the paper's value; at most
	// MaxIRIQueueFlits. Wormhole switching only.
	IRIQueueFlits int
	// Switching selects the switching technique: Wormhole (the
	// paper's model, default) or Slotted (the Hector/NUMAchine
	// technique; see slotted.go).
	Switching Switching
	// UnsafeNoVC disables the virtual channels and the bubble rule
	// (wormhole switching only): every packet rides vcDescent and
	// injection is limited only by buffer space. This deliberately
	// restores the paper-era hierarchy deadlock documented in the
	// package comment (e.g. 3:3:8 at T=2 under full load) so the stall
	// forensics can be exercised against a genuine wait-for cycle.
	// Never set it in measurement runs.
	UnsafeNoVC bool
}

// MaxIRIQueueFlits caps the IRI queue depth. The paper's queues hold
// one cache-line packet, at most 9 flits; New allocates every queue's
// storage up front, so an unbounded depth would let one request ask for
// gigabytes.
const MaxIRIQueueFlits = 256

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Spec.Levels) == 0 {
		return fmt.Errorf("ring: empty topology spec")
	}
	last := c.Spec.NumLevels() - 1
	for i, b := range c.Spec.Levels {
		if b < 1 {
			return fmt.Errorf("ring: level %d branching %d < 1", i, b)
		}
		if i < last && b < 2 {
			return fmt.Errorf("ring: internal level %d branching %d < 2 (a ring with one child is a wire; fold the level away)", i, b)
		}
	}
	switch c.LineBytes {
	case 16, 32, 64, 128:
	default:
		return fmt.Errorf("ring: unsupported cache line size %dB (the paper's sizings cover 16, 32, 64 and 128)", c.LineBytes)
	}
	if c.Switching != Wormhole && c.Switching != Slotted {
		return fmt.Errorf("ring: unknown switching technique %d", c.Switching)
	}
	if c.IRIQueueFlits < 0 || c.IRIQueueFlits > MaxIRIQueueFlits {
		return fmt.Errorf("ring: IRIQueueFlits = %d (want 0 for cl, or up to %d)", c.IRIQueueFlits, MaxIRIQueueFlits)
	}
	if cl := packet.RingSizing.CacheLineFlits(c.LineBytes); c.IRIQueueFlits > 0 && c.IRIQueueFlits < cl {
		return fmt.Errorf("ring: IRIQueueFlits = %d holds less than one %dB cache-line packet (%d flits); a worm crossing the IRI would wedge forever",
			c.IRIQueueFlits, c.LineBytes, cl)
	}
	if c.UnsafeNoVC && c.Switching == Slotted {
		return fmt.Errorf("ring: UnsafeNoVC applies to wormhole switching only (slotted rings have no virtual channels to disable)")
	}
	return nil
}

// nic couples a leaf-ring station with its PM. The station's
// injection queues are the paper's output response and request
// registers (each holding exactly one packet), kept filled from the
// PM's pending lists.
type nic struct {
	st *station
	pm node.Port
}

// refillNIC moves whole pending packets from c's PM into its empty
// output registers, waking the station, while the PM's pending bit,
// bit of *word, is set: refill calls it only then, and the request
// register asks again after the response register may have drained the
// PM (commit phase; the PM pending lists and bits are written only by
// the PM's own commit, which runs earlier in the tick — see the
// registration order in internal/core). A register holds one cache
// line's flits, the longest packet, so a taken packet always fits.
func (n *Network) refillNIC(c *nic, word *uint64, bit uint64) {
	st := c.st
	if st.qn[qResp] == 0 {
		if p, ok := c.pm.TakeResponse(); ok {
			n.inject(st, qResp, p)
		}
	}
	if st.qn[qReq] == 0 && *word&bit != 0 {
		if p, ok := c.pm.TakeRequest(); ok {
			n.inject(st, qReq, p)
		}
	}
}

// Network is the hierarchical ring interconnect as a sim.Component.
type Network struct {
	cfg     Config
	clFlits int
	// stations holds every station by value in build order — the
	// deterministic DFS order the tick and the delivery order follow.
	stations []station
	// slab is every station's queue storage, station by station in
	// build order, each station's four windows in queue order (see
	// station.window). A slot that holds no flit is zero.
	slab []flit
	// util[i] counts the flits station i sends on its output link; its
	// ring's clock (ringInst.cycles) counts the capacity. It is kept
	// off the stations, whose first lines the tick reads every cycle;
	// Links lists the counters by ring level.
	util []int64
	// busy and staged are bitsets over the station slab: bit i of busy
	// is set while station i may hold a flit (every push into its
	// queues sets it; the compute that finds it idle clears it), bit i
	// of staged while it has a flit staged to commit this tick. A PM
	// tick visits only the busy stations and commits only the staged
	// ones, in ascending bit order, which is build order.
	busy, staged []uint64
	nics         []nic // indexed by PM id
	// pending is a bitset over nics: bit i is NIC i's PM's pending
	// signal (node.Port.BindPending), set while the PM holds a packet
	// for the NIC. A ring never shards, so PMs share its words.
	pending []uint64
	// iris lists the Inter-Ring Interfaces, parents first, by their
	// upper station. An IRI, a 2x2 crossbar between a lower and an upper
	// ring, is a pair of stations that are each other's peer: the upper
	// one sits on the parent ring, injects from the up buffers and exits
	// into the down buffers; the lower one sits on the child ring,
	// injects from the down buffers and exits into the up buffers.
	iris   []*station
	rings  []*ringInst // post-order: the global ring is last
	engine *sim.Engine

	tracer *trace.Recorder
}

// SetTracer attaches an optional lifecycle recorder (nil-safe).
func (n *Network) SetTracer(t *trace.Recorder) {
	n.tracer = t
	for i := range n.stations {
		st := &n.stations[i]
		st.hopLabel = ""
		if t != nil {
			st.hopLabel = st.name + "->" + st.downstream.name
		}
	}
}

// New builds the network for cfg connecting the given PMs (len must
// equal cfg.Spec.PMs()). One engine tick is one PM cycle; a
// double-speed global ring's second cycle runs inside Commit.
func New(cfg Config, pms []node.Port, engine *sim.Engine) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(pms) != cfg.Spec.PMs() {
		return nil, fmt.Errorf("ring: %d PMs supplied for a %s topology (%d)",
			len(pms), cfg.Spec, cfg.Spec.PMs())
	}
	// One station per PM plus two per IRI; an IRI hangs below every
	// branch of every internal level.
	spec := cfg.Spec
	numIRIs := 0
	for level, rings := 0, 1; level < spec.NumLevels()-1; level++ {
		rings *= spec.Levels[level]
		numIRIs += rings
	}
	numStations := len(pms) + 2*numIRIs
	words := (numStations + 63) / 64
	cl := packet.RingSizing.CacheLineFlits(cfg.LineBytes)
	slots := len(pms)*(numVCs+numInject)*cl + 2*numIRIs*(numVCs*cl+numInject*cfg.iriQueueFlits())
	n := &Network{
		cfg:      cfg,
		clFlits:  cl,
		stations: make([]station, 0, numStations),
		slab:     make([]flit, 0, slots),
		util:     make([]int64, numStations),
		busy:     make([]uint64, words),
		staged:   make([]uint64, words),
		nics:     make([]nic, len(pms)),
		pending:  make([]uint64, (len(pms)+63)/64),
		iris:     make([]*station, 0, numIRIs),
		engine:   engine,
	}
	n.buildRing(0, 0, pms, nil)
	return n, nil
}

// iriQueueFlits resolves the configured IRI queue depth (0 → cl).
func (c Config) iriQueueFlits() int {
	if c.IRIQueueFlits == 0 {
		return packet.RingSizing.CacheLineFlits(c.LineBytes)
	}
	return c.IRIQueueFlits
}

// addStation appends a station to the preallocated station slab
// (stations point at each other, so it must never grow), gives it
// transit buffers of one cache-line packet each and injection queues
// of injectFlits in the flit slab, and returns it.
func (n *Network) addStation(name string, level, injectFlits int) *station {
	i, base := len(n.stations), len(n.slab)
	size := numVCs*n.clFlits + numInject*injectFlits
	if i == cap(n.stations) || base+size > cap(n.slab) {
		panic("ring: station or flit slab undersized")
	}
	n.stations, n.slab = n.stations[:i+1], n.slab[:base+size]
	st := &n.stations[i]
	st.name, st.level = name, level
	for q := range st.qcap {
		st.qoff[q], st.qcap[q] = int32(base), uint16(n.clFlits)
		if q >= numVCs {
			st.qcap[q] = uint16(injectFlits)
		}
		base += int(st.qcap[q])
	}
	st.id, st.busyWord, st.busyBit = int32(i), &n.busy[i/64], 1<<(i%64)
	return st
}

// buildRing recursively constructs the ring at the given level whose
// subtree covers PM ids [base, base+SubtreeSize(level)). parentUpper,
// when non-nil, is the upper station of the IRI above this ring; the
// IRI's lower station joins this ring as the last slot. Stations are
// appended to n.stations and wired in ring order.
func (n *Network) buildRing(level, base int, pms []node.Port, parentUpper *station) {
	spec := n.cfg.Spec
	branches := spec.Levels[level]
	inst := &ringInst{
		lo:         base,
		hi:         base + spec.SubtreeSize(level),
		unsafeNoVC: n.cfg.UnsafeNoVC,
	}
	iriQ := n.cfg.iriQueueFlits()

	if level == spec.NumLevels()-1 {
		// Leaf ring: one NIC per PM.
		for j := 0; j < branches; j++ {
			id := base + j
			st := n.addStation(fmt.Sprintf("nic%d", id), level, n.clFlits)
			st.exitLo, st.exitHi = id, id+1
			st.deliver = pms[id].Deliver
			n.nics[id] = nic{st: st, pm: pms[id]}
			pms[id].BindPending(&n.pending[id/64], 1<<(id%64))
			inst.stations = append(inst.stations, st)
		}
	} else {
		// Internal ring: one child IRI upper station per child ring.
		sub := spec.SubtreeSize(level + 1)
		for j := 0; j < branches; j++ {
			lo := base + j*sub
			upper := n.addStation(fmt.Sprintf("iri[%d,%d).up", lo, lo+sub), level, iriQ)
			upper.exitLo, upper.exitHi = lo, lo+sub
			inst.stations = append(inst.stations, upper)
			n.iris = append(n.iris, upper)
			// The child ring adds the IRI's lower station as its last
			// slot.
			n.buildRing(level+1, lo, pms, upper)
		}
	}

	if parentUpper != nil {
		lower := n.addStation(fmt.Sprintf("iri[%d,%d).down", inst.lo, inst.hi), level, iriQ)
		lower.exitLo, lower.exitHi, lower.exitOutside = inst.lo, inst.hi, true
		lower.peer, parentUpper.peer = parentUpper, lower
		inst.stations = append(inst.stations, lower)
	}
	// Close the ring: slot i sends to slot i+1 (mod size), and bind
	// every station to the ring instance (virtual-channel classing
	// and the bubble rule need the ring's subtree range).
	n.rings = append(n.rings, inst)
	for i, st := range inst.stations {
		st.downstream = inst.stations[(i+1)%len(inst.stations)]
		st.ring = inst
	}
}

// global returns the top-level ring (built last).
func (n *Network) global() *ringInst { return n.rings[len(n.rings)-1] }

// Compute implements sim.Component: every ring's cycle of PM cycle
// now. It visits the busy stations only: an idle station stages
// nothing and counts no stall, so skipping it changes nothing.
func (n *Network) Compute(now int64) {
	for _, r := range n.rings {
		r.begin()
	}
	for w, word := range n.busy {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			st := &n.stations[w*64+b]
			if st.compute() {
				n.busy[w] &^= 1 << b
			} else if st.staged {
				n.staged[w] |= 1 << b
			}
		}
	}
}

// Commit implements sim.Component: it applies the staged transfers and
// refills the NICs; then a double-speed global ring runs its second
// cycle, refilling again when it is the leaf ring. Progress is
// reported to the engine once per commit (batched).
func (n *Network) Commit(now int64) {
	moved := 0
	for w, word := range n.staged {
		n.staged[w] = 0
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			n.commit(&n.stations[w*64+b], now)
			moved++
		}
	}
	n.refill()
	if n.cfg.DoubleSpeedGlobal {
		g := n.global()
		g.late = true
		moved += n.step(g, now)
		g.late = false
		if len(n.rings) == 1 {
			n.refill()
		}
	}
	if moved > 0 {
		n.engine.ProgressN(moved)
	}
}

// step runs one cycle of ring r alone, visiting every station of it
// (a double-speed global ring's second cycle), and returns how many
// flits moved.
func (n *Network) step(r *ringInst, now int64) (moved int) {
	r.begin()
	for _, st := range r.stations {
		st.compute()
	}
	for _, st := range r.stations {
		if st.staged {
			n.commit(st, now)
			moved++
		}
	}
	return moved
}

// refill tops up the output registers of every NIC whose PM has a
// packet pending, in ascending NIC order; the others have nothing to
// take.
func (n *Network) refill() {
	for w, word := range n.pending {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			n.refillNIC(&n.nics[w*64+b], &n.pending[w], 1<<b)
		}
	}
}

// Partition implements network.Model by declining: a ring tick is a
// few microseconds of loads and stores, less than the barriers a
// sharded tick has to cross, so every ring runs on the serial engine at
// any Workers (the measurement is recorded in DESIGN §8).
func (n *Network) Partition() *sim.Partition { return nil }

// levelGroups returns one empty link group per hierarchy level,
// labeled "L0" (global) to "L<levels-1>" (local rings).
func levelGroups(levels int) []sim.LinkGroup {
	groups := make([]sim.LinkGroup, levels)
	for lvl := range groups {
		groups[lvl].Label = fmt.Sprintf("L%d", lvl)
	}
	return groups
}

// Links implements network.Model: every station's outgoing link, by
// the level of its ring. The rings of a level tick together, so any
// one's clock is the level's.
func (n *Network) Links() []sim.LinkGroup {
	groups := levelGroups(n.cfg.Spec.NumLevels())
	for i := range n.stations {
		st := &n.stations[i]
		g := &groups[st.level]
		g.Clock, g.Busy = &st.ring.cycles, append(g.Busy, &n.util[i])
	}
	return groups
}

// DescribeMetrics registers the ring family's instruments:
//
//   - iri_queue_flits{node,queue=up|down,class=req|rsp}: per-IRI
//     queue occupancy gauges, read only at sample time.
//   - nic_inject_stall_cycles{node}: per-NIC injection-stall cycles,
//     the count every station keeps (see station.countStall).
//
// Every instrument reads state the tick keeps anyway.
func (n *Network) DescribeMetrics(reg *metrics.Registry) {
	for _, upper := range n.iris {
		node := fmt.Sprintf("iri[%d,%d)", upper.exitLo, upper.exitHi)
		for _, q := range []struct {
			st           *station
			q            int
			queue, class string
		}{
			{upper, qReq, "up", "req"},
			{upper, qResp, "up", "rsp"},
			{upper.peer, qReq, "down", "req"},
			{upper.peer, qResp, "down", "rsp"},
		} {
			qn := &q.st.qn[q.q]
			reg.Gauge("iri_queue_flits",
				metrics.Labels{Node: node, Queue: q.queue, Class: q.class},
				func() float64 { return float64(*qn) })
		}
	}
	for id := range n.nics {
		st := n.nics[id].st
		reg.CounterFunc("nic_inject_stall_cycles", metrics.Labels{Node: fmt.Sprintf("nic%d", id)},
			func() int64 { return st.stalls })
	}
}

// BufferedFlits returns the number of flits resident in every buffer
// of the network (transit, NIC output, IRI up/down), for liveness
// accounting and tests.
func (n *Network) BufferedFlits() int {
	total := 0
	for i := range n.stations {
		total += n.stations[i].bufferedFlits() + n.stations[i].queuedFlits()
	}
	return total
}

// NumStations returns the number of ring attachments (for tests).
func (n *Network) NumStations() int { return len(n.stations) }

// CheckInvariants returns an error if any queue exceeds its capacity,
// a slot past a queue's count is not empty, a buffered flit's decode
// byte differs from a fresh decode at the station holding it, a
// queue's front byte is not its front flit's, a station holding a flit
// is missing from the busy set, a staged transfer outlived its tick,
// a NIC's pending bit differs from its PM's pending state, any ring
// violates the bubble bound, or a ring's residency counters differ
// from a recount of the packets on its transit paths; used by property
// tests between ticks.
func (n *Network) CheckInvariants() error {
	for id := range n.nics {
		if set := n.pending[id/64]&(1<<(id%64)) != 0; !node.PendingAgrees(n.nics[id].pm, set) {
			return fmt.Errorf("ring: nic%d pending bit %v disagrees with its PM", id, set)
		}
	}
	for i := range n.stations {
		st := &n.stations[i]
		for q := 0; q < numQueues; q++ {
			off, size := st.window(q)
			if int(st.qn[q]) > size {
				return fmt.Errorf("ring: %s queue %d over capacity", st.name, q)
			}
			for k := 0; k < size; k++ {
				f := n.slab[st.slot(q, k)]
				if k >= int(st.qn[q]) {
					if f != (flit{}) {
						return fmt.Errorf("ring: %s queue %d holds %s past its %d flits", st.name, q, f, st.qn[q])
					}
					continue
				}
				want := decode(f.pkt, int(f.idx))
				if f.idx == 0 {
					want |= st.route(f.pkt.Dst)
				}
				if f.dec != want {
					return fmt.Errorf("ring: %s queue %d holds %s decoded %#x, a fresh decode says %#x",
						st.name, q, f, f.dec, want)
				}
			}
			if front := n.slab[off+int(st.qh[q])].dec; st.front[q] != front {
				return fmt.Errorf("ring: %s queue %d front byte %#x, its front slot's %#x", st.name, q, st.front[q], front)
			}
		}
		if !st.idle() && n.busy[i/64]&st.busyBit == 0 {
			return fmt.Errorf("ring: %s holds flits but is not in the busy set", st.name)
		}
		if st.staged || n.staged[i/64]&st.busyBit != 0 {
			return fmt.Errorf("ring: %s kept a staged transfer past its tick", st.name)
		}
	}
	for i, r := range n.rings {
		for v := 0; v < numVCs; v++ {
			// With UnsafeNoVC the bubble rule is deliberately off, so
			// the residency bound does not hold; the residency
			// *counting* below still must.
			if res := r.resident[v]; !r.unsafeNoVC && res > len(r.stations)-1 {
				return fmt.Errorf("ring: ring %d vc%d has %d residents in %d buffers (bubble violated)",
					i, v, res, len(r.stations))
			}
			if got := n.recountResidents(r, v); got != r.resident[v] {
				return fmt.Errorf("ring: ring %d vc%d counts %d residents but %d packets are on its transit path",
					i, v, r.resident[v], got)
			}
		}
	}
	return nil
}

// eachPacket calls fn once per flit buffered in s's queue q, front
// first, with the flit's packet.
func (n *Network) eachPacket(s *station, q int, fn func(*packet.Packet)) {
	for k := 0; k < int(s.qn[q]); k++ {
		fn(n.slab[s.slot(q, k)].pkt)
	}
}

// recountResidents counts, from the buffers and locks alone, the
// packets on ring r's channel v's transit path: every packet with a
// flit in a transit buffer, plus every worm still streaming out of an
// injection queue whose head continued on the ring (its flits may all
// have left the transit buffers again while its body is still
// crossing).
func (n *Network) recountResidents(r *ringInst, v int) int {
	on := map[*packet.Packet]bool{}
	for _, st := range r.stations {
		n.eachPacket(st, v, func(p *packet.Packet) { on[p] = true })
		// While the lock holds, downstream's inPkt is this worm and
		// inRoute is where its head went.
		if st.locked&(1<<v) != 0 && st.txQ[v] >= numVCs && st.downstream.inRoute[v] == routeContinue {
			on[st.txPkt[v]] = true
		}
	}
	return len(on)
}
