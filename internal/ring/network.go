package ring

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

// Config parameterizes a hierarchical ring network.
type Config struct {
	// Spec is the ring hierarchy ("2:3:4" etc.).
	Spec topo.RingSpec
	// LineBytes is the cache line size; it fixes cl, the size in
	// flits of every ring buffer (paper: each NIC/IRI buffer holds
	// exactly one cache-line packet).
	LineBytes int
	// DoubleSpeedGlobal clocks the global ring at twice the speed of
	// all other rings and the PMs (paper Section 6). The engine then
	// ticks at the global rate and everything else runs with period
	// 2.
	DoubleSpeedGlobal bool
	// IRIQueueFlits overrides the capacity of the IRI up/down queues
	// (per class) in flits; 0 means cl, the paper's value. Wormhole
	// switching only.
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
	if c.IRIQueueFlits < 0 {
		return fmt.Errorf("ring: IRIQueueFlits = %d", c.IRIQueueFlits)
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

// TicksPerCycle returns how many engine ticks make one PM clock cycle
// under this configuration.
func (c Config) TicksPerCycle() int64 {
	if c.DoubleSpeedGlobal {
		return 2
	}
	return 1
}

// nic couples a leaf-ring station with its PM. The station's
// injection queues are the paper's output response and request
// registers (each holding exactly one packet), kept filled from the
// PM's pending lists.
type nic struct {
	st *station
	pm node.Port
}

// refill moves whole pending packets from the PM into empty NIC
// output registers (commit phase; the PM pending lists are written
// only by the PM's own commit, which runs earlier in the tick — see
// the registration order in internal/core).
func (n *nic) refill() {
	resp, req := &n.st.inject[qResp], &n.st.inject[qReq]
	if !(resp.Empty() || req.Empty()) || !n.pm.HasPending() {
		return
	}
	if resp.Empty() {
		if p, ok := n.pm.PendingResponse(); ok && p.Flits <= resp.Cap() {
			n.pm.PopPendingResponse()
			for i := 0; i < p.Flits; i++ {
				resp.Push(packet.Flit{Pkt: p, Index: i})
			}
		}
	}
	if req.Empty() {
		if p, ok := n.pm.PendingRequest(); ok && p.Flits <= req.Cap() {
			n.pm.PopPendingRequest()
			for i := 0; i < p.Flits; i++ {
				req.Push(packet.Flit{Pkt: p, Index: i})
			}
		}
	}
}

// Network is the hierarchical ring interconnect as a sim.Component.
type Network struct {
	cfg     Config
	clFlits int
	// stations holds every station by value in build order — the
	// deterministic DFS order the tick, the fault plan's node indices
	// and the delivery order all follow.
	stations []station
	nics     []nic // indexed by PM id
	// iris lists the Inter-Ring Interfaces, parents first, by their
	// upper station. An IRI, a 2x2 crossbar between a lower and an upper
	// ring, is a pair of stations that are each other's peer: the upper
	// one sits on the parent ring, injects from the up buffers and exits
	// into the down buffers; the lower one sits on the child ring,
	// injects from the down buffers and exits into the up buffers.
	iris   []*station
	rings  []*ringInst // post-order: the global ring is last
	engine *sim.Engine

	// faults is the installed fault schedule; nil for fault-free runs
	// (the common case), keeping the hot path at one nil check.
	faults *fault.Driver

	tracer *trace.Recorder
}

// SetTracer attaches an optional lifecycle recorder (nil-safe).
func (n *Network) SetTracer(t *trace.Recorder) {
	n.tracer = t
	for i := range n.stations {
		st := &n.stations[i]
		st.tracer, st.hopLabel = t, ""
		if t != nil {
			st.hopLabel = st.name + "->" + st.downstream.name
		}
	}
}

// New builds the network for cfg connecting the given PMs (len must
// equal cfg.Spec.PMs()). The network clocks its rings itself (see
// ringInst.period); register the Network on the engine with period 1.
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
	n := &Network{
		cfg:      cfg,
		clFlits:  packet.RingSizing.CacheLineFlits(cfg.LineBytes),
		stations: make([]station, 0, len(pms)+2*numIRIs),
		nics:     make([]nic, len(pms)),
		iris:     make([]*station, 0, numIRIs),
		engine:   engine,
	}
	n.buildRing(0, 0, pms, nil)
	return n, nil
}

// addStation appends a station to the preallocated slab (stations
// point at each other, so the slab must never grow) and returns it.
func (n *Network) addStation(name string, level, injectFlits int) *station {
	if len(n.stations) == cap(n.stations) {
		panic("ring: station slab undersized")
	}
	n.stations = n.stations[:len(n.stations)+1]
	st := &n.stations[len(n.stations)-1]
	st.init(name, level, n.clFlits, injectFlits)
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
		period:     1,
	}
	// With a double-speed global ring the engine tick is the global
	// ring cycle and every other ring runs at half rate.
	if n.cfg.DoubleSpeedGlobal && level != 0 {
		inst.period = 2
	}
	iriQ := n.cfg.IRIQueueFlits
	if iriQ == 0 {
		iriQ = n.clFlits
	}

	if level == spec.NumLevels()-1 {
		// Leaf ring: one NIC per PM.
		for j := 0; j < branches; j++ {
			id := base + j
			st := n.addStation(fmt.Sprintf("nic%d", id), level, n.clFlits)
			st.exitLo, st.exitHi = id, id+1
			st.deliver = pms[id].Deliver
			n.nics[id] = nic{st: st, pm: pms[id]}
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

// pmTick reports whether now is a tick of the PM clock, on which
// every ring acts. On the ticks between (they exist only under a
// double-speed global ring) the global ring alone does.
func (n *Network) pmTick(now int64) bool {
	tpc := n.cfg.TicksPerCycle()
	return tpc == 1 || now%tpc == 0
}

// global returns the top-level ring (built last).
func (n *Network) global() *ringInst { return n.rings[len(n.rings)-1] }

// Compute implements sim.Component.
func (n *Network) Compute(now int64) {
	if n.faults != nil {
		n.faults.Step(now)
	}
	if !n.pmTick(now) {
		n.global().compute(now)
		return
	}
	for _, r := range n.rings {
		r.stagedInj = [numVCs]int{}
	}
	for i := range n.stations {
		n.stations[i].compute(now)
	}
}

// Commit implements sim.Component. Progress is reported to the
// engine once per commit (batched) rather than per station.
func (n *Network) Commit(now int64) {
	moved := 0
	if n.pmTick(now) {
		for i := range n.stations {
			if n.stations[i].commit(now) {
				moved++
			}
		}
	} else {
		moved = n.global().commit(now)
	}
	if moved > 0 {
		n.engine.ProgressN(moved)
	}
	// Every NIC sits on a leaf ring, and all leaf rings share a clock.
	if n.nics[0].st.ring.active(now) {
		for i := range n.nics {
			n.nics[i].refill()
		}
	}
}

// Partition implements network.Model by declining: a ring tick is a
// few microseconds of loads and stores, less than the barriers a
// sharded tick has to cross, so every ring runs on the serial engine at
// any Workers (the measurement is recorded in DESIGN §8).
func (n *Network) Partition() *sim.Partition { return nil }

// levelLabel names hierarchy level lvl for metrics ("L0" = global).
func levelLabel(lvl int) string { return fmt.Sprintf("L%d", lvl) }

// DescribeMetrics registers the ring family's instruments:
//
//   - ring_link_util{link=L<level>}: per-level link utilization,
//     backed by the stations' existing counters (no new hot-path
//     work).
//   - iri_queue_flits{node,queue=up|down,class=req|rsp}: per-IRI
//     queue occupancy gauges, read only at sample time.
//   - nic_inject_stall_cycles{node}: per-NIC injection-stall counter
//     (see station.commit), attached only while a registry is
//     present.
//
// Nil-safe: a nil registry registers nothing and attaches no
// counters, so the disabled hot path is unchanged.
func (n *Network) DescribeMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	perLevel := make([][]*stats.Utilization, n.cfg.Spec.NumLevels())
	for i := range n.stations {
		st := &n.stations[i]
		perLevel[st.level] = append(perLevel[st.level], &st.util)
	}
	for lvl, backing := range perLevel {
		reg.Ratio("ring_link_util", metrics.Labels{Link: levelLabel(lvl)}, backing...)
	}
	for _, upper := range n.iris {
		node := fmt.Sprintf("iri[%d,%d)", upper.exitLo, upper.exitHi)
		for _, q := range []struct {
			fifo         *packet.FIFO
			queue, class string
		}{
			{&upper.inject[qReq], "up", "req"},
			{&upper.inject[qResp], "up", "rsp"},
			{&upper.peer.inject[qReq], "down", "req"},
			{&upper.peer.inject[qResp], "down", "rsp"},
		} {
			fifo := q.fifo
			reg.Gauge("iri_queue_flits",
				metrics.Labels{Node: node, Queue: q.queue, Class: q.class},
				func() float64 { return float64(fifo.Len()) })
		}
	}
	for id := range n.nics {
		n.nics[id].st.stall = reg.Counter("nic_inject_stall_cycles",
			metrics.Labels{Node: fmt.Sprintf("nic%d", id)})
	}
	if n.faults != nil {
		n.faults.Counter = reg.Counter("fault_events_total", metrics.Labels{})
	}
}

// UtilizationByLevel returns link utilization aggregated per ring
// level (index 0 = global ring, last = local rings), in [0, 1].
func (n *Network) UtilizationByLevel() []float64 {
	levels := n.cfg.Spec.NumLevels()
	out := make([]float64, levels)
	aggr := make([]stats.Utilization, levels)
	for i := range n.stations {
		st := &n.stations[i]
		aggr[st.level].Merge(&st.util)
	}
	for i := range aggr {
		out[i] = aggr[i].Value()
	}
	return out
}

// ResetUtilization clears all link utilization counters (called at
// warmup end).
func (n *Network) ResetUtilization() {
	for i := range n.stations {
		n.stations[i].util.Reset()
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

// CheckInvariants returns an error if any transit buffer exceeds its
// capacity, any ring violates the bubble bound, or a ring's residency
// counters differ from a recount of the packets on its transit paths;
// used by property tests.
func (n *Network) CheckInvariants() error {
	for i := range n.stations {
		st := &n.stations[i]
		for v := range st.vcs {
			if st.vcs[v].buf.Len() > st.vcs[v].buf.Cap() {
				return fmt.Errorf("ring: %s vc%d transit over capacity", st.name, v)
			}
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
			if got := r.recountResidents(v); got != r.resident[v] {
				return fmt.Errorf("ring: ring %d vc%d counts %d residents but %d packets are on its transit path",
					i, v, r.resident[v], got)
			}
		}
	}
	return nil
}

// recountResidents counts, from the buffers and locks alone, the
// packets on channel v's transit path: every packet with a flit in a
// transit buffer, plus every worm still streaming out of an injection
// queue whose head continued on the ring (its flits may all have left
// the transit buffers again while its body is still crossing).
func (r *ringInst) recountResidents(v int) int {
	on := map[*packet.Packet]bool{}
	for _, st := range r.stations {
		vc := &st.vcs[v]
		vc.buf.EachPacket(func(p *packet.Packet) { on[p] = true })
		// While the lock holds, downstream's inPkt is this worm and
		// inRoute is where its head went.
		if vc.txSrc != nil && st.downstream.vcs[v].inRoute == routeContinue {
			on[vc.txPkt] = true
		}
	}
	return len(on)
}
