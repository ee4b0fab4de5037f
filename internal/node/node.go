// Package node models the processing modules (PMs) of the simulated
// multiprocessor: a processor that generates cache misses under the
// M-MRP workload model and a memory controller that turns request
// packets into response packets after a fixed service time.
//
// PMs are identical for both network types (paper Section 2.3: "the
// processor and memory modules are essentially the same as in the
// ring simulator"); only the network interface controller differs, so
// the NIC implementations live in internal/ring and internal/mesh and
// talk to the PM through the Port interface defined here.
package node

import (
	"fmt"

	"ringmesh/internal/metrics"
	"ringmesh/internal/packet"
	"ringmesh/internal/rng"
	"ringmesh/internal/stats"
	"ringmesh/internal/trace"
	"ringmesh/internal/workload"
)

// Injector is the view a NIC has of its PM's outbound traffic. The
// NIC pulls: it peeks at the oldest pending packet of a class and pops
// it once it has accepted it into a network buffer. Responses and
// requests are exposed separately because both NIC designs prioritize
// responses at injection.
type Injector interface {
	// PendingResponse returns the oldest response awaiting injection.
	PendingResponse() (*packet.Packet, bool)
	// PopPendingResponse removes and returns it.
	PopPendingResponse() *packet.Packet
	// PendingRequest returns the oldest request awaiting injection.
	PendingRequest() (*packet.Packet, bool)
	// PopPendingRequest removes and returns it.
	PopPendingRequest() *packet.Packet
}

// Deliverer receives packets that exit the network at this PM.
type Deliverer interface {
	// Deliver hands over a completely received packet. Delivery never
	// blocks: the PM is a perfect sink (responses are consumed
	// immediately; requests join the memory queue). now is in engine
	// ticks.
	Deliver(p *packet.Packet, now int64)
}

// Port is what a network model needs from each processing module: a
// source of pending packets to inject and a sink for delivered ones.
type Port interface {
	Injector
	Deliverer
	// HasPending reports whether the Injector holds a packet of either
	// class, so a model can ask once per cycle before peeking twice.
	HasPending() bool
}

// Collector aggregates the run's measurements across all PMs.
type Collector struct {
	// Latency accumulates round-trip access latencies in PM clock
	// cycles via the batch-means method.
	Latency *stats.BatchMeans
	// Hist optionally accumulates the latency distribution.
	Hist *stats.Histogram
	// LatHist, when non-nil, mirrors completion latencies into a
	// metrics histogram so /metrics exports the distribution as
	// Prometheus _bucket series. Observation-only, like Hist.
	LatHist *metrics.Histogram
	// TicksPerCycle converts engine ticks to PM cycles (2 when the
	// global ring is double-clocked, else 1).
	TicksPerCycle int64

	// Issued counts remote transactions injected; Completed counts
	// responses received; Local counts local accesses that bypassed
	// the network; Reads/Writes split Issued by kind.
	Issued, Completed, Local int64
	Reads, Writes            int64

	inFlight int64
	nextID   uint64

	// cells, when non-nil, switches the collector into sharded mode
	// for the parallel engine: every PM stages its measurement events
	// into a private per-PM cell instead of the shared fields above,
	// and DrainCells folds them back once per tick from the engine's
	// serial epilogue. Serial runs never allocate cells, so their
	// arithmetic is untouched.
	cells []cell
}

// cell is one PM's measurement staging slot in sharded mode. The
// integer counters are commutative deltas; lat holds the tick's
// completion latencies (at most one per tick: a PM receives at most
// one packet tail per tick), which must be folded into the
// order-dependent accumulators in serial delivery order.
type cell struct {
	issued, completed, local int64
	reads, writes            int64
	inFlight                 int64
	nextID                   uint64
	lat                      []int64
}

// NewCollector returns a collector using batch means that discard the
// first batch, per the paper's output-analysis method.
func NewCollector(ticksPerCycle int64) *Collector {
	if ticksPerCycle < 1 {
		ticksPerCycle = 1
	}
	return &Collector{
		Latency:       stats.NewBatchMeans(1),
		TicksPerCycle: ticksPerCycle,
	}
}

// InFlight reports whether any transaction is outstanding anywhere —
// the engine watchdog's liveness predicate.
func (c *Collector) InFlight() bool { return c.inFlight > 0 }

// Outstanding returns the number of transactions in flight.
func (c *Collector) Outstanding() int64 { return c.inFlight }

func (c *Collector) allocID() uint64 {
	c.nextID++
	return c.nextID
}

func (c *Collector) issued(read bool) {
	c.Issued++
	c.inFlight++
	if read {
		c.Reads++
	} else {
		c.Writes++
	}
}

func (c *Collector) completed(latencyTicks int64) {
	c.Completed++
	c.inFlight--
	c.observe(latencyTicks)
}

// observe feeds one completion latency (in ticks) to the accumulators.
func (c *Collector) observe(latencyTicks int64) {
	cycles := float64(latencyTicks) / float64(c.TicksPerCycle)
	c.Latency.Add(cycles)
	if c.Hist != nil {
		c.Hist.Add(cycles)
	}
	c.LatHist.Observe(cycles)
}

// ShardByPM switches the collector into sharded mode for n PMs (see
// the cells field). Call before the first tick; the parallel engine's
// epilogue must then call DrainCells every tick.
func (c *Collector) ShardByPM(n int) {
	c.cells = make([]cell, n)
	for i := range c.cells {
		c.cells[i].lat = make([]int64, 0, 2)
	}
}

// DrainCells folds the per-PM cells into the shared aggregates, in
// PM-id order: that is the order the serial engine observes same-tick
// completions in (sim.Partition requires it), so the order-dependent
// Welford accumulation behind Latency and Hist reproduces the serial
// arithmetic bit for bit; the integer counters are commutative. Runs
// once per tick on the parallel engine's serial epilogue (worker 0,
// after the last commit barrier), which also makes InFlight safe for
// the watchdog that runs right after.
func (c *Collector) DrainCells() {
	for i := range c.cells {
		cl := &c.cells[i]
		for _, lt := range cl.lat {
			c.observe(lt)
		}
		cl.lat = cl.lat[:0]
		c.Issued += cl.issued
		c.Completed += cl.completed
		c.Local += cl.local
		c.Reads += cl.reads
		c.Writes += cl.writes
		c.inFlight += cl.inFlight
		cl.issued, cl.completed, cl.local = 0, 0, 0
		cl.reads, cl.writes, cl.inFlight = 0, 0, 0
	}
}

// Config carries per-PM model parameters.
type Config struct {
	// Workload is the M-MRP attribute set (R is realized by Pattern).
	Workload workload.MMRP
	// Pattern selects reference targets.
	Pattern workload.Pattern
	// Sizing is the network's flit geometry (ring or mesh).
	Sizing packet.Sizing
	// LineBytes is the cache line size.
	LineBytes int
	// MemLatency is the memory controller service time per request in
	// PM cycles. The paper does not state its value; 10 cycles is the
	// package default (see DESIGN.md; an ablation bench verifies the
	// study's conclusions are insensitive to it).
	MemLatency int
	// Seed derives each PM's private random stream.
	Seed uint64
	// Tracer optionally records packet lifecycle events (nil-safe).
	Tracer *trace.Recorder
}

// DefaultMemLatency is the memory service time used when Config
// leaves MemLatency zero.
const DefaultMemLatency = 10

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Pattern == nil {
		return fmt.Errorf("node: nil workload pattern")
	}
	if c.LineBytes <= 0 {
		return fmt.Errorf("node: LineBytes = %d", c.LineBytes)
	}
	if c.MemLatency < 0 {
		return fmt.Errorf("node: MemLatency = %d", c.MemLatency)
	}
	return nil
}

// PM is one processing module: processor + local memory + the pending
// queues its NIC drains. It implements sim.Component (all state
// changes happen in Commit; see the engine's two-phase discipline) as
// well as Injector and Deliverer.
type PM struct {
	ID  int
	cfg Config
	col *Collector
	rnd *rng.Source

	// Processor state.
	gap         int // PM cycles until the next miss fires
	outstanding int
	// queuedMisses holds generation timestamps of misses awaiting a
	// free outstanding slot (open-loop mode only).
	queuedMisses []int64

	// Pending packets awaiting NIC pickup (unbounded; the bounded
	// buffers live in the NICs).
	pendingReq  []*packet.Packet
	pendingResp []*packet.Packet

	// Memory controller: FIFO of requests, one served at a time.
	memQ       []*packet.Packet
	memRemain  int
	memServing *packet.Packet

	memLatency int

	// label is the "where" of this PM's trace events, built once when
	// a tracer is attached (no event formats it).
	label string
}

// NewPM builds one processing module.
func NewPM(id int, cfg Config, col *Collector) (*PM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ml := cfg.MemLatency
	if ml == 0 {
		ml = DefaultMemLatency
	}
	pm := &PM{
		ID:         id,
		cfg:        cfg,
		col:        col,
		rnd:        rng.Derive(cfg.Seed, uint64(id)),
		memLatency: ml,
	}
	if cfg.Tracer != nil {
		pm.label = fmt.Sprintf("pm%d", id)
	}
	pm.gap = pm.sampleGap()
	return pm, nil
}

// The noteX helpers route the PM's measurement events either to the
// shared collector fields (serial mode) or to the PM's private cell
// (sharded mode, where the shared fields must not be written
// concurrently). Sharded packet ids carry the PM id in the high bits
// so per-PM sequences never collide; ids are observation-only (trace
// and forensics labels), so the different numbering cannot affect
// simulation results.

func (pm *PM) allocID() uint64 {
	if pm.col.cells != nil {
		cl := &pm.col.cells[pm.ID]
		cl.nextID++
		return uint64(pm.ID+1)<<40 | cl.nextID
	}
	return pm.col.allocID()
}

func (pm *PM) noteIssued(read bool) {
	if pm.col.cells != nil {
		cl := &pm.col.cells[pm.ID]
		cl.issued++
		cl.inFlight++
		if read {
			cl.reads++
		} else {
			cl.writes++
		}
		return
	}
	pm.col.issued(read)
}

func (pm *PM) noteLocal() {
	if pm.col.cells != nil {
		pm.col.cells[pm.ID].local++
		return
	}
	pm.col.Local++
}

func (pm *PM) noteCompleted(latencyTicks int64) {
	if pm.col.cells != nil {
		cl := &pm.col.cells[pm.ID]
		cl.completed++
		cl.inFlight--
		cl.lat = append(cl.lat, latencyTicks)
		return
	}
	pm.col.completed(latencyTicks)
}

// sampleGap draws the cycles until the next miss.
func (pm *PM) sampleGap() int {
	if pm.cfg.Workload.Deterministic {
		return int(1.0/pm.cfg.Workload.C + 0.5)
	}
	return pm.rnd.Geometric(pm.cfg.Workload.C) + 1
}

// Compute implements sim.Component. PMs stage nothing: all their
// state is private or append/pop-disjoint with the NICs, so the work
// happens in Commit.
func (pm *PM) Compute(now int64) {}

// Commit implements sim.Component: advance the memory controller and
// the processor by one PM cycle.
func (pm *PM) Commit(now int64) {
	pm.stepMemory(now)
	pm.stepProcessor(now)
}

func (pm *PM) stepMemory(now int64) {
	if pm.memServing != nil {
		pm.memRemain--
		if pm.memRemain > 0 {
			return
		}
		req := pm.memServing
		pm.memServing = nil
		resp := &packet.Packet{
			ID:    pm.allocID(),
			Type:  packet.ResponseFor(req.Type),
			Src:   pm.ID,
			Dst:   req.Src,
			Issue: req.Issue,
		}
		resp.Flits = pm.cfg.Sizing.PacketFlits(resp.Type, pm.cfg.LineBytes)
		pm.pendingResp = append(pm.pendingResp, resp)
	}
	if pm.memServing == nil && len(pm.memQ) > 0 {
		pm.memServing = pm.memQ[0]
		copy(pm.memQ, pm.memQ[1:])
		pm.memQ = pm.memQ[:len(pm.memQ)-1]
		pm.memRemain = pm.memLatency
	}
}

func (pm *PM) stepProcessor(now int64) {
	open := pm.cfg.Workload.OpenLoop
	if !open && pm.outstanding >= pm.cfg.Workload.T {
		// Closed loop: generation is suspended until a response
		// arrives.
		return
	}
	pm.gap--
	if pm.gap <= 0 {
		pm.gap = pm.sampleGap()
		if open {
			pm.queuedMisses = append(pm.queuedMisses, now)
		} else {
			pm.issueMiss(now)
		}
	}
	if open {
		for len(pm.queuedMisses) > 0 && pm.outstanding < pm.cfg.Workload.T {
			at := pm.queuedMisses[0]
			copy(pm.queuedMisses, pm.queuedMisses[1:])
			pm.queuedMisses = pm.queuedMisses[:len(pm.queuedMisses)-1]
			pm.issueMiss(at)
		}
	}
}

// issueMiss generates one memory reference whose round-trip latency
// counts from genTime (the cycle the miss occurred).
func (pm *PM) issueMiss(genTime int64) {
	dst := pm.cfg.Pattern.Target(pm.ID, pm.rnd)
	if dst == pm.ID {
		// Local access: satisfied by the local memory without the
		// network (paper Section 2). Not counted in round-trip
		// latency and does not occupy an outstanding slot.
		pm.noteLocal()
		return
	}
	read := pm.rnd.Bernoulli(pm.cfg.Workload.ReadProb)
	typ := packet.ReadRequest
	if !read {
		typ = packet.WriteRequest
	}
	req := &packet.Packet{
		ID:    pm.allocID(),
		Type:  typ,
		Src:   pm.ID,
		Dst:   dst,
		Issue: genTime,
	}
	req.Flits = pm.cfg.Sizing.PacketFlits(typ, pm.cfg.LineBytes)
	pm.cfg.Tracer.Record(genTime, trace.Issue, req, pm.label)
	pm.pendingReq = append(pm.pendingReq, req)
	pm.outstanding++
	pm.noteIssued(read)
}

// Deliver implements Deliverer.
func (pm *PM) Deliver(p *packet.Packet, now int64) {
	if p.Dst != pm.ID {
		panic(fmt.Sprintf("node: PM %d received %s", pm.ID, p))
	}
	pm.cfg.Tracer.Record(now, trace.Deliver, p, pm.label)
	if p.Type.IsResponse() {
		pm.outstanding--
		if pm.outstanding < 0 {
			panic(fmt.Sprintf("node: PM %d outstanding underflow", pm.ID))
		}
		pm.noteCompleted(now - p.Issue)
		return
	}
	pm.memQ = append(pm.memQ, p)
}

// HasPending reports whether a packet of either class awaits NIC
// pickup — the one question an idle NIC asks every cycle.
func (pm *PM) HasPending() bool { return len(pm.pendingResp)+len(pm.pendingReq) > 0 }

// PendingResponse implements Injector.
func (pm *PM) PendingResponse() (*packet.Packet, bool) {
	if len(pm.pendingResp) == 0 {
		return nil, false
	}
	return pm.pendingResp[0], true
}

// PopPendingResponse implements Injector.
func (pm *PM) PopPendingResponse() *packet.Packet {
	p := pm.pendingResp[0]
	copy(pm.pendingResp, pm.pendingResp[1:])
	pm.pendingResp = pm.pendingResp[:len(pm.pendingResp)-1]
	return p
}

// PendingRequest implements Injector.
func (pm *PM) PendingRequest() (*packet.Packet, bool) {
	if len(pm.pendingReq) == 0 {
		return nil, false
	}
	return pm.pendingReq[0], true
}

// PopPendingRequest implements Injector.
func (pm *PM) PopPendingRequest() *packet.Packet {
	p := pm.pendingReq[0]
	copy(pm.pendingReq, pm.pendingReq[1:])
	pm.pendingReq = pm.pendingReq[:len(pm.pendingReq)-1]
	return p
}

// Outstanding returns the processor's current in-flight transaction
// count. Only tests call it: it is how they observe the T-window.
func (pm *PM) Outstanding() int { return pm.outstanding }

// QueuedInMemory returns the depth of the memory request queue
// (including the request in service). Only tests call it: it is how
// they observe memory queueing.
func (pm *PM) QueuedInMemory() int {
	n := len(pm.memQ)
	if pm.memServing != nil {
		n++
	}
	return n
}
