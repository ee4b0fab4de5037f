package ring

// Slotted-ring switching — the technique Hector and NUMAchine actually
// implement (paper footnote 3: "The NUMAchine system implements
// slotted ring switching and not wormhole switching"), and the
// comparison subject of the authors' companion study [Ravindran &
// Stumm, IEICE '96], which found slotted rings "tend to perform
// somewhat better". This file implements it as an alternative to the
// wormhole model in station.go so the trade-off can be measured (see
// the ablate-switching experiment).
//
// Model, following Hector: every ring is a synchronous pipeline of S
// packet-sized slots, one per station. A slot carries at most one
// whole packet and advances one position every cl ring cycles — the
// time to move one slot's worth of data across the 128-bit channel —
// so link bandwidth matches the wormhole model while short packets
// waste the remainder of their slot (the classic slotted-ring cost
// that reference [21] trades against wormhole blocking).
//
// A station injects a whole packet into a passing empty slot. When a
// packet passes the station where it must leave the ring, it is
// copied out whole: processing modules always accept; an IRI transfer
// queue accepts while it has room, otherwise the packet keeps
// circulating and retries next pass (slotted-ring NACK-and-retry).
// IRIs are store-and-forward with transfer queues several packets
// deep (slottedIRIDepth), as in Hector.
//
// Slots advance unconditionally, so a single ring can never gridlock;
// the remaining hazard is a whole hierarchy freezing with every ring
// 100% occupied by ascending packets whose up queues are full. One
// admission rule removes it: a packet that will travel *ascending* on
// a ring (destination outside the ring's subtree) is injected only
// while occupancy is below S-2, while *descending* packets (simply
// draining toward their processing modules, which always accept) are
// admitted into any empty slot. At least two slots per ring therefore
// only ever carry self-draining descent traffic, so down queues always
// drain, upper rings always free, and by induction up queues drain
// too. The engine watchdog stays armed as a backstop.

import (
	"fmt"

	"ringmesh/internal/fault"
	"ringmesh/internal/metrics"
	"ringmesh/internal/node"
	"ringmesh/internal/packet"
	"ringmesh/internal/sim"
	"ringmesh/internal/stats"
	"ringmesh/internal/trace"
)

// Switching selects the ring network's switching technique.
type Switching uint8

const (
	// Wormhole is the paper's primary model (station.go).
	Wormhole Switching = iota
	// Slotted is the Hector/NUMAchine technique (this file).
	Slotted
)

// String names the technique.
func (s Switching) String() string {
	switch s {
	case Wormhole:
		return "wormhole"
	case Slotted:
		return "slotted"
	default:
		return fmt.Sprintf("Switching(%d)", uint8(s))
	}
}

// slottedIRIDepth is the packet capacity of each IRI transfer queue
// per class (Hector buffered several packets between rings).
const slottedIRIDepth = 4

// readyPkt is a packet awaiting injection.
type readyPkt struct {
	pkt *packet.Packet
	at  int64 // tick from which injection may start
}

// spktQueue is a bounded store-and-forward packet FIFO (an IRI up or
// down queue, or a NIC output register).
type spktQueue struct {
	cap   int
	items []readyPkt
}

func newSPktQueue(capacity int) *spktQueue { return &spktQueue{cap: capacity} }

func (q *spktQueue) count() int { return len(q.items) }

// push stores a whole packet, injectable from tick at. It reports
// whether there was room.
func (q *spktQueue) push(p *packet.Packet, at int64) bool {
	if len(q.items) >= q.cap {
		return false
	}
	q.items = append(q.items, readyPkt{pkt: p, at: at})
	return true
}

// peek returns the oldest packet if it is injectable at tick now.
func (q *spktQueue) peek(now int64) (*packet.Packet, bool) {
	if len(q.items) == 0 || now < q.items[0].at {
		return nil, false
	}
	return q.items[0].pkt, true
}

// pop removes the oldest packet if it is injectable at tick now.
func (q *spktQueue) pop(now int64) (*packet.Packet, bool) {
	p, ok := q.peek(now)
	if !ok {
		return nil, false
	}
	copy(q.items, q.items[1:])
	q.items = q.items[:len(q.items)-1]
	return p, true
}

func (q *spktQueue) bufferedFlits() int {
	n := 0
	for _, r := range q.items {
		n += r.pkt.Flits
	}
	return n
}

// sstation is one attachment on a slotted ring.
type sstation struct {
	name  string
	level int

	// exits decides whether a packet leaves this ring here; exitPM
	// delivers to the local PM (always accepted); exitResp/exitReq
	// are the request/response transfer queues for IRI exits.
	exits    func(dst int) bool
	exitPM   func(p *packet.Packet, now int64)
	exitResp *spktQueue
	exitReq  *spktQueue

	// inject is the priority-ordered list of outgoing packet queues
	// (responses before requests).
	inject []*spktQueue

	// flt is the installed fault on this station's ring attachment;
	// nil (the common case) costs one pointer check per slot step. See
	// fault.go.
	flt *stFault

	util *stats.Utilization

	// stall, when non-nil (metrics enabled, NIC stations only), counts
	// slot-steps where a whole packet was ready to inject but the
	// passing slot could not take it (occupied, or the admission rule
	// refused).
	stall *metrics.Counter
}

// hasReady reports whether any inject queue holds a packet injectable
// at tick now. Only evaluated when the stall counter is attached.
func (s *sstation) hasReady(now int64) bool {
	for _, q := range s.inject {
		if _, ok := q.peek(now); ok {
			return true
		}
	}
	return false
}

// exitQueueFor picks the transfer queue matching a packet's class.
func (s *sstation) exitQueueFor(p *packet.Packet) *spktQueue {
	if p.Type.IsResponse() {
		return s.exitResp
	}
	return s.exitReq
}

// sslot carries at most one whole packet.
type sslot struct {
	pkt *packet.Packet
}

// sring is one physical slotted ring.
type sring struct {
	stations []*sstation
	slots    []sslot
	// lo, hi is the ring's subtree range: packets with dst inside are
	// descending (toward their PM), others ascending.
	lo, hi int
	// headPos rotates instead of copying: station i reads slot
	// (headPos + i) mod S.
	headPos  int
	occupied int
	// slotPeriod is the ticks between slot advances: cl ring cycles,
	// doubled for non-global rings under double-speed clocking.
	slotPeriod int64
}

// mayAdmit applies the ascent admission rule described in the package
// comment.
func (r *sring) mayAdmit(p *packet.Packet) bool {
	if p.Dst >= r.lo && p.Dst < r.hi {
		return true // descending: always drains, always admitted
	}
	return r.occupied < len(r.slots)-2
}

func (r *sring) slotAt(i int) *sslot {
	return &r.slots[(r.headPos+i)%len(r.slots)]
}

// siri groups one inter-ring interface's transfer queues for metrics
// and diagnostics (the stations hold the same queues for switching).
type siri struct {
	lo, hi                           int
	upResp, upReq, downResp, downReq *spktQueue
}

// SlottedNetwork is the hierarchical ring interconnect under slotted
// switching, as a sim.Component.
type SlottedNetwork struct {
	cfg      Config
	clFlits  int
	rings    []*sring
	stations []*sstation
	nics     []*snic
	iris     []*siri
	engine   *sim.Engine
	tracer   *trace.Recorder

	// faults is the installed fault schedule; nil for fault-free runs.
	faults *fault.Driver
}

// SetTracer attaches an optional lifecycle recorder (nil-safe).
func (n *SlottedNetwork) SetTracer(t *trace.Recorder) { n.tracer = t }

// snic couples a station with its PM.
type snic struct {
	st      *sstation
	pm      node.Port
	outResp *spktQueue
	outReq  *spktQueue
	period  int64
}

// NewSlotted builds the slotted-ring network for cfg (the same
// topology, sizing and clocking rules as the wormhole network).
func NewSlotted(cfg Config, pms []node.Port, engine *sim.Engine) (*SlottedNetwork, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(pms) != cfg.Spec.PMs() {
		return nil, fmt.Errorf("ring: %d PMs supplied for a %s topology (%d)",
			len(pms), cfg.Spec, cfg.Spec.PMs())
	}
	n := &SlottedNetwork{
		cfg:     cfg,
		clFlits: packet.RingSizing.CacheLineFlits(cfg.LineBytes),
		nics:    make([]*snic, len(pms)),
		engine:  engine,
	}
	n.buildRing(0, 0, pms, nil)
	for _, r := range n.rings {
		r.slotPeriod = int64(n.clFlits)
		if cfg.DoubleSpeedGlobal && r.stations[0].level != 0 {
			r.slotPeriod *= 2
		}
	}
	if cfg.DoubleSpeedGlobal {
		for _, nc := range n.nics {
			nc.period = 2
		}
	}
	return n, nil
}

// buildRing mirrors the wormhole builder: leaf rings carry NICs,
// internal rings carry child IRI upper stations, and every non-global
// ring ends with its parent IRI's lower station.
func (n *SlottedNetwork) buildRing(level, base int, pms []node.Port, parentLower *sstation) {
	spec := n.cfg.Spec
	branches := spec.Levels[level]
	var slots []*sstation

	if level == spec.NumLevels()-1 {
		for j := 0; j < branches; j++ {
			pmID := base + j
			pm := pms[pmID]
			st := &sstation{
				name:  fmt.Sprintf("snic%d", pmID),
				level: level,
				util:  &stats.Utilization{},
			}
			id := pmID
			st.exits = func(dst int) bool { return dst == id }
			st.exitPM = pm.Deliver
			outResp, outReq := newSPktQueue(1), newSPktQueue(1)
			st.inject = []*spktQueue{outResp, outReq}
			n.nics[pmID] = &snic{st: st, pm: pm, outResp: outResp, outReq: outReq, period: 1}
			n.stations = append(n.stations, st)
			slots = append(slots, st)
		}
	} else {
		sub := spec.SubtreeSize(level + 1)
		for j := 0; j < branches; j++ {
			lo := base + j*sub
			hi := lo + sub
			upResp := newSPktQueue(slottedIRIDepth)
			upReq := newSPktQueue(slottedIRIDepth)
			downResp := newSPktQueue(slottedIRIDepth)
			downReq := newSPktQueue(slottedIRIDepth)
			n.iris = append(n.iris, &siri{lo: lo, hi: hi,
				upResp: upResp, upReq: upReq, downResp: downResp, downReq: downReq})

			upper := &sstation{
				name:  fmt.Sprintf("siri[%d,%d).up", lo, hi),
				level: level,
				util:  &stats.Utilization{},
			}
			l, h := lo, hi
			upper.exits = func(dst int) bool { return dst >= l && dst < h }
			upper.exitResp, upper.exitReq = downResp, downReq
			upper.inject = []*spktQueue{upResp, upReq}

			lower := &sstation{
				name:  fmt.Sprintf("siri[%d,%d).down", lo, hi),
				level: level + 1,
				util:  &stats.Utilization{},
			}
			lower.exits = func(dst int) bool { return dst < l || dst >= h }
			lower.exitResp, lower.exitReq = upResp, upReq
			lower.inject = []*spktQueue{downResp, downReq}

			n.stations = append(n.stations, upper)
			slots = append(slots, upper)
			n.buildRing(level+1, lo, pms, lower)
		}
	}

	if parentLower != nil {
		n.stations = append(n.stations, parentLower)
		slots = append(slots, parentLower)
	}
	n.rings = append(n.rings, &sring{
		stations: slots,
		slots:    make([]sslot, len(slots)),
		lo:       base,
		hi:       base + spec.SubtreeSize(level),
	})
}

// Compute implements sim.Component. All slotted movement is internal
// single-writer slot and queue manipulation, so the work happens in
// Commit (after the PMs', keeping the wormhole model's pipeline
// timing).
func (n *SlottedNetwork) Compute(now int64) {}

// Commit implements sim.Component. Progress is reported to the engine
// once per commit (batched).
func (n *SlottedNetwork) Commit(now int64) {
	if n.faults != nil {
		n.faults.Step(now)
	}
	moved := 0
	for _, r := range n.rings {
		if now%r.slotPeriod != 0 {
			continue
		}
		moved += n.stepRing(r, now)
	}
	if moved > 0 {
		n.engine.ProgressN(moved)
	}
	for _, nc := range n.nics {
		if now%nc.period == 0 {
			n.refillNIC(nc, now)
		}
	}
}

// Partition implements network.Model by declining, like the wormhole
// network's.
func (n *SlottedNetwork) Partition() *sim.Partition { return nil }

// stepRing advances one ring by one slot position and lets every
// station process the slot now in front of it. It returns the number
// of progress events (extractions and injections).
func (n *SlottedNetwork) stepRing(r *sring, now int64) (moved int) {
	r.headPos = (r.headPos - 1 + len(r.slots)) % len(r.slots)
	for i, st := range r.stations {
		st.util.Tick(1)
		slot := r.slotAt(i)
		if st.flt != nil && st.fltBlockedSlot(now, now/r.slotPeriod) {
			// The station's ring attachment is faulted: it neither
			// extracts nor injects; an occupied slot rides past (the
			// slotted ring's natural NACK behaviour).
			if slot.pkt != nil {
				st.util.Busy(1)
			}
			continue
		}
		busy := slot.pkt != nil
		injected := false
		if slot.pkt != nil && n.processOccupied(r, st, slot, now) {
			moved++
		}
		if slot.pkt == nil {
			injected = n.tryInject(r, st, slot, now)
			if injected {
				moved++
			}
			busy = busy || injected
		}
		if st.stall != nil && !injected && st.hasReady(now) {
			st.stall.Inc()
		}
		if busy {
			st.util.Busy(1)
		}
	}
	return moved
}

// processOccupied copies the passing packet out when this is its exit
// station and the exit has room; otherwise it keeps circulating. It
// reports whether the packet was extracted.
func (n *SlottedNetwork) processOccupied(r *sring, st *sstation, slot *sslot, now int64) bool {
	p := slot.pkt
	if st.exits == nil || !st.exits(p.Dst) {
		return false
	}
	if st.exitPM != nil {
		slot.pkt = nil
		r.occupied--
		st.exitPM(p, now)
		return true
	}
	// Store-and-forward: injectable on the next ring from the next
	// tick. Queue full means NACK — the packet rides on and retries
	// next lap.
	if st.exitQueueFor(p).push(p, now+1) {
		slot.pkt = nil
		r.occupied--
		return true
	}
	return false
}

// tryInject fills an empty slot with a whole waiting packet
// (responses before requests) and reports whether one was injected.
func (n *SlottedNetwork) tryInject(r *sring, st *sstation, slot *sslot, now int64) bool {
	for _, q := range st.inject {
		head, ok := q.peek(now)
		if !ok || !r.mayAdmit(head) {
			continue
		}
		q.pop(now)
		slot.pkt = head
		r.occupied++
		n.tracer.Record(now, trace.Inject, head, st.name)
		return true
	}
	return false
}

// refillNIC loads pending packets from the PM into free NIC output
// registers.
func (n *SlottedNetwork) refillNIC(nc *snic, now int64) {
	if nc.outResp.count() == 0 {
		if p, ok := nc.pm.PendingResponse(); ok {
			nc.pm.PopPendingResponse()
			nc.outResp.push(p, now+1)
		}
	}
	if nc.outReq.count() == 0 {
		if p, ok := nc.pm.PendingRequest(); ok {
			nc.pm.PopPendingRequest()
			nc.outReq.push(p, now+1)
		}
	}
}

// DescribeMetrics registers the slotted model's instruments under the
// same names and labels as the wormhole model (per-level slot
// utilization as ring_link_util, per-IRI transfer-queue occupancy in
// flits, per-NIC injection stalls counted in slot-steps), so the two
// switching techniques export directly comparable telemetry.
// Nil-safe.
func (n *SlottedNetwork) DescribeMetrics(reg *metrics.Registry) {
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
		node := fmt.Sprintf("iri[%d,%d)", ir.lo, ir.hi)
		for _, q := range []struct {
			queue       *spktQueue
			kind, class string
		}{
			{ir.upReq, "up", "req"},
			{ir.upResp, "up", "rsp"},
			{ir.downReq, "down", "req"},
			{ir.downResp, "down", "rsp"},
		} {
			queue := q.queue
			reg.Gauge("iri_queue_flits",
				metrics.Labels{Node: node, Queue: q.kind, Class: q.class},
				func() float64 { return float64(queue.bufferedFlits()) })
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

// UtilizationByLevel returns per-level slot utilization in [0,1]
// (index 0 = global).
func (n *SlottedNetwork) UtilizationByLevel() []float64 {
	levels := n.cfg.Spec.NumLevels()
	aggr := make([]stats.Utilization, levels)
	for _, st := range n.stations {
		aggr[st.level].Merge(st.util)
	}
	out := make([]float64, levels)
	for i := range aggr {
		out[i] = aggr[i].Value()
	}
	return out
}

// ResetUtilization clears slot counters.
func (n *SlottedNetwork) ResetUtilization() {
	for _, st := range n.stations {
		st.util.Reset()
	}
}

// BufferedFlits counts flits riding slots plus flits waiting in
// transfer queues and output registers.
func (n *SlottedNetwork) BufferedFlits() int {
	total := 0
	for _, r := range n.rings {
		for i := range r.slots {
			if r.slots[i].pkt != nil {
				total += r.slots[i].pkt.Flits
			}
		}
	}
	for _, st := range n.stations {
		for _, q := range st.inject {
			total += q.bufferedFlits()
		}
	}
	return total
}

// CheckInvariants verifies slot and queue bookkeeping.
func (n *SlottedNetwork) CheckInvariants() error {
	for ri, r := range n.rings {
		occ := 0
		for i := range r.slots {
			if r.slots[i].pkt != nil {
				occ++
			}
		}
		if occ != r.occupied {
			return fmt.Errorf("ring: slotted ring %d occupancy count %d != %d actual",
				ri, r.occupied, occ)
		}
	}
	for _, st := range n.stations {
		for _, q := range st.inject {
			if q.count() > q.cap {
				return fmt.Errorf("ring: %s queue holds %d packets, cap %d",
					st.name, q.count(), q.cap)
			}
		}
	}
	return nil
}

// NumStations returns the number of ring attachments.
func (n *SlottedNetwork) NumStations() int { return len(n.stations) }
