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

// PMPort is what the network needs from each processing module.
type PMPort interface {
	node.Injector
	node.Deliverer
}

// nic couples a station with its PM-side buffers: the paper's output
// request and response queues (each holding exactly one packet), kept
// filled from the PM's pending lists.
type nic struct {
	st      *station
	pm      PMPort
	outResp *packet.FIFO
	outReq  *packet.FIFO
}

// refill moves whole pending packets from the PM into empty NIC
// output queues (commit phase; the PM pending lists are written only
// by the PM's own commit, which runs earlier in the tick — see the
// registration order in internal/core).
func (n *nic) refill() {
	if n.outResp.Empty() {
		if p, ok := n.pm.PendingResponse(); ok && p.Flits <= n.outResp.Cap() {
			n.pm.PopPendingResponse()
			for i := 0; i < p.Flits; i++ {
				n.outResp.Push(packet.Flit{Pkt: p, Index: i})
			}
		}
	}
	if n.outReq.Empty() {
		if p, ok := n.pm.PendingRequest(); ok && p.Flits <= n.outReq.Cap() {
			n.pm.PopPendingRequest()
			for i := 0; i < p.Flits; i++ {
				n.outReq.Push(packet.Flit{Pkt: p, Index: i})
			}
		}
	}
}

// iri is the Inter-Ring Interface: a 2x2 crossbar between a lower and
// an upper ring, with request/response-split up and down buffers.
type iri struct {
	lower                            *station // sits on the child ring; exit feeds up buffers
	upper                            *station // sits on the parent ring; exit feeds down buffers
	upResp, upReq, downResp, downReq *packet.FIFO
	// lo, hi is the contiguous PM range of the subtree below this IRI.
	lo, hi int
}

// Network is the hierarchical ring interconnect as a sim.Component.
type Network struct {
	cfg      Config
	clFlits  int
	stations []*station // deterministic order for iteration
	nics     []*nic     // indexed by PM id
	iris     []*iri
	rings    []*ringInst
	engine   *sim.Engine

	// faults is the installed fault schedule; nil for fault-free runs
	// (the common case), keeping the hot path at one nil check.
	faults *fault.Driver

	tracer *trace.Recorder
}

// SetTracer attaches an optional lifecycle recorder (nil-safe).
func (n *Network) SetTracer(t *trace.Recorder) {
	n.tracer = t
	for _, st := range n.stations {
		st.tracer, st.hopLabel = t, ""
		if t != nil {
			st.hopLabel = st.name + "->" + st.downstream.name
		}
	}
}

// New builds the network for cfg connecting the given PMs (len must
// equal cfg.Spec.PMs()). The network registers per-station clock
// periods itself; register the Network on the engine with period 1.
func New(cfg Config, pms []PMPort, engine *sim.Engine) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(pms) != cfg.Spec.PMs() {
		return nil, fmt.Errorf("ring: %d PMs supplied for a %s topology (%d)",
			len(pms), cfg.Spec, cfg.Spec.PMs())
	}
	n := &Network{
		cfg:     cfg,
		clFlits: packet.RingSizing.CacheLineFlits(cfg.LineBytes),
		nics:    make([]*nic, len(pms)),
		engine:  engine,
	}
	n.buildRing(0, 0, pms, nil)
	// Clock periods: with a double-speed global ring, the engine tick
	// is the global ring cycle and every non-global station runs at
	// half rate.
	if cfg.DoubleSpeedGlobal {
		for _, st := range n.stations {
			if st.level != 0 {
				st.period = 2
			}
		}
	}
	return n, nil
}

// buildRing recursively constructs the ring at the given level whose
// subtree covers PM ids [base, base+SubtreeSize(level)). parentLower,
// when non-nil, is the parent IRI's lower-side station which joins
// this ring as its last slot. It returns nothing; stations are
// appended to n.stations and wired in ring order.
func (n *Network) buildRing(level, base int, pms []PMPort, parentLower *station) {
	spec := n.cfg.Spec
	branches := spec.Levels[level]
	var slots []*station

	if level == spec.NumLevels()-1 {
		// Leaf ring: one NIC per PM.
		for j := 0; j < branches; j++ {
			pmID := base + j
			st := newStation(fmt.Sprintf("nic%d", pmID), level, n.clFlits)
			outResp := packet.NewFIFO(n.clFlits)
			outReq := packet.NewFIFO(n.clFlits)
			st.inject = []*packet.FIFO{outResp, outReq}
			pm := pms[pmID]
			id := pmID
			st.exits = func(dst int) bool { return dst == id }
			st.exitSink = &pmSink{deliver: pm.Deliver}
			n.nics[pmID] = &nic{st: st, pm: pm, outResp: outResp, outReq: outReq}
			n.stations = append(n.stations, st)
			slots = append(slots, st)
		}
	} else {
		// Internal ring: one child IRI upper station per child ring.
		sub := spec.SubtreeSize(level + 1)
		iriQ := n.cfg.IRIQueueFlits
		if iriQ == 0 {
			iriQ = n.clFlits
		}
		for j := 0; j < branches; j++ {
			lo := base + j*sub
			hi := lo + sub
			ir := &iri{
				lo: lo, hi: hi,
				upResp:   packet.NewFIFO(iriQ),
				upReq:    packet.NewFIFO(iriQ),
				downResp: packet.NewFIFO(iriQ),
				downReq:  packet.NewFIFO(iriQ),
			}
			upper := newStation(fmt.Sprintf("iri[%d,%d).up", lo, hi), level, n.clFlits)
			upper.exits = func(dst int) bool { return dst >= ir.lo && dst < ir.hi }
			upper.exitSink = &queueSink{resp: ir.downResp, req: ir.downReq}
			upper.inject = []*packet.FIFO{ir.upResp, ir.upReq}

			lower := newStation(fmt.Sprintf("iri[%d,%d).down", lo, hi), level+1, n.clFlits)
			lower.exits = func(dst int) bool { return dst < ir.lo || dst >= ir.hi }
			lower.exitSink = &queueSink{resp: ir.upResp, req: ir.upReq}
			lower.inject = []*packet.FIFO{ir.downResp, ir.downReq}

			ir.upper, ir.lower = upper, lower
			n.iris = append(n.iris, ir)
			n.stations = append(n.stations, upper)
			slots = append(slots, upper)
			// Build the child ring with the lower station as its
			// parent slot; the child appends `lower` to n.stations.
			n.buildRing(level+1, lo, pms, lower)
		}
	}

	if parentLower != nil {
		n.stations = append(n.stations, parentLower)
		slots = append(slots, parentLower)
	}
	// Close the ring: slot i sends to slot i+1 (mod size), and bind
	// every station to the ring instance (virtual-channel classing
	// and the bubble rule need the ring's subtree range).
	inst := &ringInst{
		stations:   slots,
		lo:         base,
		hi:         base + spec.SubtreeSize(level),
		unsafeNoVC: n.cfg.UnsafeNoVC,
	}
	for v := 0; v < numVCs; v++ {
		inst.resident[v] = map[*packet.Packet]bool{}
	}
	n.rings = append(n.rings, inst)
	for i, st := range slots {
		st.downstream = slots[(i+1)%len(slots)]
		st.ring = inst
	}
}

// Compute implements sim.Component.
func (n *Network) Compute(now int64) {
	if n.faults != nil {
		n.faults.Step(now)
	}
	for _, r := range n.rings {
		r.stagedInj = [numVCs]int{}
	}
	for _, st := range n.stations {
		if st.active(now) {
			st.compute(now)
		}
	}
}

// Commit implements sim.Component. Progress is reported to the
// engine once per commit (batched) rather than per station.
func (n *Network) Commit(now int64) {
	moved := 0
	for _, st := range n.stations {
		if !st.active(now) {
			continue
		}
		if st.commit(now) {
			moved++
		}
	}
	if moved > 0 {
		n.engine.ProgressN(moved)
	}
	for _, nc := range n.nics {
		if nc.st.active(now) {
			nc.refill()
		}
	}
}

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
	for _, st := range n.stations {
		perLevel[st.level] = append(perLevel[st.level], st.util)
	}
	for lvl, backing := range perLevel {
		reg.Ratio("ring_link_util", metrics.Labels{Link: levelLabel(lvl)}, backing...)
	}
	for _, ir := range n.iris {
		ir := ir
		node := fmt.Sprintf("iri[%d,%d)", ir.lo, ir.hi)
		for _, q := range []struct {
			fifo         *packet.FIFO
			queue, class string
		}{
			{ir.upReq, "up", "req"},
			{ir.upResp, "up", "rsp"},
			{ir.downReq, "down", "req"},
			{ir.downResp, "down", "rsp"},
		} {
			fifo := q.fifo
			reg.Gauge("iri_queue_flits",
				metrics.Labels{Node: node, Queue: q.queue, Class: q.class},
				func() float64 { return float64(fifo.Len()) })
		}
	}
	for id, nc := range n.nics {
		nc.st.stall = reg.Counter("nic_inject_stall_cycles",
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
	for _, st := range n.stations {
		aggr[st.level].Merge(st.util)
	}
	for i := range aggr {
		out[i] = aggr[i].Value()
	}
	return out
}

// ResetUtilization clears all link utilization counters (called at
// warmup end).
func (n *Network) ResetUtilization() {
	for _, st := range n.stations {
		st.util.Reset()
	}
}

// BufferedFlits returns the number of flits resident in every buffer
// of the network (transit, NIC output, IRI up/down), for liveness
// accounting and tests.
func (n *Network) BufferedFlits() int {
	total := 0
	for _, st := range n.stations {
		total += st.bufferedFlits()
	}
	for _, nc := range n.nics {
		total += nc.outResp.Len() + nc.outReq.Len()
	}
	for _, ir := range n.iris {
		total += ir.upResp.Len() + ir.upReq.Len() + ir.downResp.Len() + ir.downReq.Len()
	}
	return total
}

// NumStations returns the number of ring attachments (for tests).
func (n *Network) NumStations() int { return len(n.stations) }

// CheckInvariants returns an error if any transit buffer exceeds its
// capacity or any ring violates the bubble bound; used by property
// tests.
func (n *Network) CheckInvariants() error {
	for _, st := range n.stations {
		for v := 0; v < numVCs; v++ {
			if st.vcs[v].buf.Len() > st.vcs[v].buf.Cap() {
				return fmt.Errorf("ring: %s vc%d transit over capacity", st.name, v)
			}
		}
	}
	for i, r := range n.rings {
		for v := 0; v < numVCs; v++ {
			// With UnsafeNoVC the bubble rule is deliberately off, so
			// the residency bound does not hold; the residency
			// *tracking* below still must.
			if res := r.residents(v); !r.unsafeNoVC && res > len(r.stations)-1 {
				return fmt.Errorf("ring: ring %d vc%d has %d residents in %d buffers (bubble violated)",
					i, v, res, len(r.stations))
			}
			// Every packet with flits buffered must be a tracked
			// resident.
			buffered := map[*packet.Packet]bool{}
			for _, st := range r.stations {
				st.vcs[v].buf.EachPacket(func(p *packet.Packet) { buffered[p] = true })
			}
			for p := range buffered {
				if !r.resident[v][p] {
					return fmt.Errorf("ring: ring %d vc%d holds flits of untracked packet %s",
						i, v, p)
				}
			}
		}
	}
	return nil
}
