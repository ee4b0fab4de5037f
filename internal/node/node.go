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
	"math"

	"ringmesh/internal/metrics"
	"ringmesh/internal/packet"
	"ringmesh/internal/rng"
	"ringmesh/internal/stats"
	"ringmesh/internal/trace"
	"ringmesh/internal/workload"
)

// Port is what a network model needs from each processing module: a
// source of pending packets to inject and a sink for delivered ones.
// The PM pushes: at build the network binds each port to a bit of a
// word it owns, and the port keeps that bit equal to "a packet of
// either class awaits the NIC", so an idle NIC reads a bit instead of
// asking its PM. The NIC then takes: each of its two output registers
// holds exactly one cache-line packet, and it takes the PM's oldest
// pending packet of a class when that register is free. Responses and
// requests are taken separately because both NIC designs prioritize
// responses at injection.
type Port interface {
	// BindPending makes bit (one set bit) of *word the port's pending
	// signal: set while a packet of either class awaits the NIC, clear
	// otherwise. The port sets it at once when it already holds one.
	// The network reads the word in its commit, after every PM's; a
	// word may carry the bits of several ports.
	BindPending(word *uint64, bit uint64)
	// TakeResponse removes and returns the oldest pending response.
	TakeResponse() (*packet.Packet, bool)
	// TakeRequest removes and returns the oldest pending request.
	TakeRequest() (*packet.Packet, bool)
	// Deliver hands over a completely received packet at PM cycle now;
	// late marks one a double-speed global ring handed over in its
	// second cycle, half a PM cycle later. Delivery never blocks: the
	// PM is a perfect sink (responses are consumed immediately;
	// requests join the memory queue).
	Deliver(p *packet.Packet, now int64, late bool)
}

// PendingAgrees reports whether set, the pending bit the network bound
// for port p (BindPending), equals p's pending state. Every PM reports
// that state through HasPending; a port that does not agrees. The
// networks' invariant checks ask it.
func PendingAgrees(p Port, set bool) bool {
	hp, ok := p.(interface{ HasPending() bool })
	return !ok || hp.HasPending() == set
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

	// Issued counts remote transactions injected; Completed counts
	// responses received; Local counts local accesses that bypassed
	// the network; Reads/Writes split Issued by kind.
	Issued, Completed, Local int64
	Reads, Writes            int64

	inFlight int64
	nextID   uint64
}

// NewCollector returns a collector using batch means that discard the
// first batch, per the paper's output-analysis method.
func NewCollector() *Collector {
	return &Collector{Latency: stats.NewBatchMeans(1)}
}

// InFlight reports whether any transaction is outstanding anywhere —
// the engine watchdog's liveness predicate.
func (c *Collector) InFlight() bool { return c.inFlight > 0 }

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

func (c *Collector) completed(cycles float64) {
	c.Completed++
	c.inFlight--
	c.observe(cycles)
}

// observe feeds one completion latency (in PM cycles) to the
// accumulators.
func (c *Collector) observe(cycles float64) {
	c.Latency.Add(cycles)
	if c.Hist != nil {
		c.Hist.Add(cycles)
	}
	c.LatHist.Observe(cycles)
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

// never is the due cycle of an event that is not scheduled.
const never = math.MaxInt64

// PM is one processing module: processor + local memory + the pending
// queues its NIC drains. It implements Port, and Commit advances it by
// one PM clock cycle. It sleeps until due: it keeps the absolute cycles
// of its next events, not per-cycle countdowns, so a Commit before the
// earlier of them returns at once; a delivery wakes it.
type PM struct {
	ID  int
	cfg Config
	col *Collector
	rnd *rng.Source

	// wake is the first cycle whose Commit has work to do.
	wake int64

	// Processor state. missAt is the cycle the next miss fires, or never
	// while gap, the PM cycles left until it (this one included), is
	// frozen: before the first cycle, and while a closed-loop processor
	// is suspended on its T-window.
	gap         int
	missAt      int64
	outstanding int
	// queuedMisses holds generation timestamps of misses awaiting a
	// free outstanding slot (open-loop mode only).
	queuedMisses []int64

	// Pending packets awaiting NIC pickup (unbounded; the bounded
	// buffers live in the NICs). pendBit of *pendWord is set exactly
	// while either list is non-empty: the signal the network bound
	// (BindPending), or a word of the PM's own until it does.
	pendingReq  []*packet.Packet
	pendingResp []*packet.Packet
	pendWord    *uint64
	pendBit     uint64
	ownPend     uint64

	// Memory controller: FIFO of requests, one served at a time;
	// memDone is the cycle the request in service completes (never when
	// idle).
	memQ       []*packet.Packet
	memDone    int64
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
		missAt:     never,
		memDone:    never,
		memLatency: ml,
		pendBit:    1,
	}
	pm.pendWord = &pm.ownPend
	if cfg.Tracer != nil {
		pm.label = fmt.Sprintf("pm%d", id)
	}
	pm.gap = pm.sampleGap()
	return pm, nil
}

// sampleGap draws the cycles until the next miss.
func (pm *PM) sampleGap() int {
	if pm.cfg.Workload.Deterministic {
		return int(1.0/pm.cfg.Workload.C + 0.5)
	}
	return pm.rnd.Geometric(pm.cfg.Workload.C) + 1
}

// Commit advances the memory controller and the processor by PM cycle
// now. PMs stage nothing: all their state is private or
// append/pop-disjoint with the NICs, so the work happens in Commit.
// The sleep check is all Commit does itself, so that it inlines into
// the caller's loop over PMs.
func (pm *PM) Commit(now int64) {
	if now >= pm.wake {
		pm.step(now)
	}
}

// step is the work of a Commit that is due.
func (pm *PM) step(now int64) {
	pm.stepMemory(now)
	pm.stepProcessor(now)
	pm.wake = min(pm.memDone, pm.missAt)
}

func (pm *PM) stepMemory(now int64) {
	if pm.memServing != nil {
		if now < pm.memDone {
			return
		}
		req := pm.memServing
		pm.memServing, pm.memDone = nil, never
		resp := &packet.Packet{
			ID:    pm.col.allocID(),
			Type:  packet.ResponseFor(req.Type),
			Src:   pm.ID,
			Dst:   req.Src,
			Issue: req.Issue,
		}
		resp.Flits = pm.cfg.Sizing.PacketFlits(resp.Type, pm.cfg.LineBytes)
		pm.pendingResp = append(pm.pendingResp, resp)
		*pm.pendWord |= pm.pendBit
	}
	if len(pm.memQ) > 0 {
		pm.memServing = pm.memQ[0]
		copy(pm.memQ, pm.memQ[1:])
		pm.memQ = pm.memQ[:len(pm.memQ)-1]
		pm.memDone = now + int64(pm.memLatency)
	}
}

func (pm *PM) stepProcessor(now int64) {
	open := pm.cfg.Workload.OpenLoop
	if !open && pm.outstanding >= pm.cfg.Workload.T {
		// Closed loop: generation is suspended, its gap frozen, until a
		// response arrives.
		return
	}
	if pm.missAt == never {
		pm.missAt = now + int64(pm.gap-1)
	}
	if now >= pm.missAt {
		gap := pm.sampleGap()
		if open {
			pm.queuedMisses = append(pm.queuedMisses, now)
		} else {
			pm.issueMiss(now)
		}
		if !open && pm.outstanding >= pm.cfg.Workload.T {
			pm.gap, pm.missAt = gap, never
		} else {
			pm.missAt = now + int64(gap)
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
		pm.col.Local++
		return
	}
	read := pm.rnd.Bernoulli(pm.cfg.Workload.ReadProb)
	typ := packet.ReadRequest
	if !read {
		typ = packet.WriteRequest
	}
	req := &packet.Packet{
		ID:    pm.col.allocID(),
		Type:  typ,
		Src:   pm.ID,
		Dst:   dst,
		Issue: genTime,
	}
	req.Flits = pm.cfg.Sizing.PacketFlits(typ, pm.cfg.LineBytes)
	pm.cfg.Tracer.Record(genTime, trace.Issue, req, pm.label)
	pm.pendingReq = append(pm.pendingReq, req)
	*pm.pendWord |= pm.pendBit
	pm.outstanding++
	pm.col.issued(read)
}

// Deliver implements Port. A response may unsuspend the processor
// or free a slot for a queued miss, and a request may start the memory,
// so either wakes the PM.
func (pm *PM) Deliver(p *packet.Packet, now int64, late bool) {
	if p.Dst != pm.ID {
		panic(fmt.Sprintf("node: PM %d received %s", pm.ID, p))
	}
	pm.cfg.Tracer.Record(now, trace.Deliver, p, pm.label)
	pm.wake = 0
	if p.Type.IsResponse() {
		pm.outstanding--
		if pm.outstanding < 0 {
			panic(fmt.Sprintf("node: PM %d outstanding underflow", pm.ID))
		}
		cycles := float64(now - p.Issue)
		if late {
			cycles += 0.5
		}
		pm.col.completed(cycles)
		return
	}
	pm.memQ = append(pm.memQ, p)
}

// BindPending implements Port.
func (pm *PM) BindPending(word *uint64, bit uint64) {
	pm.pendWord, pm.pendBit = word, bit
	if pm.HasPending() {
		*word |= bit
	}
}

// HasPending reports whether a packet of either class awaits NIC
// pickup: what the bound bit must equal. The networks read the bit;
// their invariant checks and tests ask this.
func (pm *PM) HasPending() bool { return len(pm.pendingResp)+len(pm.pendingReq) > 0 }

// TakeResponse implements Port.
func (pm *PM) TakeResponse() (*packet.Packet, bool) { return pm.take(&pm.pendingResp) }

// TakeRequest implements Port.
func (pm *PM) TakeRequest() (*packet.Packet, bool) { return pm.take(&pm.pendingReq) }

// take pops the head of a pending list, keeping its backing array, and
// clears the pending bit once both lists are empty.
func (pm *PM) take(q *[]*packet.Packet) (*packet.Packet, bool) {
	if len(*q) == 0 {
		return nil, false
	}
	p := (*q)[0]
	copy(*q, (*q)[1:])
	*q = (*q)[:len(*q)-1]
	if !pm.HasPending() {
		*pm.pendWord &^= pm.pendBit
	}
	return p, true
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
