package node

import (
	"fmt"
	"slices"
	"testing"

	"ringmesh/internal/packet"
	"ringmesh/internal/rng"
	"ringmesh/internal/workload"
)

func testConfig() Config {
	return Config{
		Workload:  workload.MMRP{R: 1, C: 0.04, T: 4, ReadProb: 0.7},
		Pattern:   workload.Uniform{P: 4},
		Sizing:    packet.RingSizing,
		LineBytes: 64,
		Seed:      1,
	}
}

func mustPM(t *testing.T, id int, cfg Config, col *Collector) *PM {
	t.Helper()
	pm, err := NewPM(id, cfg, col)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Pattern = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil pattern accepted")
	}
	bad = good
	bad.LineBytes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero line accepted")
	}
	bad = good
	bad.MemLatency = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative memory latency accepted")
	}
	bad = good
	bad.Workload.T = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("bad workload accepted")
	}
}

func TestMissGenerationRate(t *testing.T) {
	col := NewCollector()
	cfg := testConfig()
	cfg.Workload.T = 1 << 30 // never block
	pm := mustPM(t, 0, cfg, col)
	const cycles = 100000
	for now := int64(0); now < cycles; now++ {
		pm.Commit(now)
	}
	total := col.Issued + col.Local
	// Expect ~ C * cycles misses (geometric gaps with mean 25).
	want := 0.04 * cycles
	if float64(total) < 0.9*want || float64(total) > 1.1*want {
		t.Fatalf("misses = %d, want ~%v", total, want)
	}
	// About 1/4 of uniform targets on 4 PMs are local.
	frac := float64(col.Local) / float64(total)
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("local fraction = %v, want ~0.25", frac)
	}
}

func TestDeterministicGaps(t *testing.T) {
	col := NewCollector()
	cfg := testConfig()
	cfg.Workload.Deterministic = true
	cfg.Workload.T = 1 << 30
	pm := mustPM(t, 0, cfg, col)
	var missCycles []int64
	for now := int64(0); now < 200; now++ {
		before := col.Issued + col.Local
		pm.Commit(now)
		if col.Issued+col.Local > before {
			missCycles = append(missCycles, now)
		}
	}
	if len(missCycles) < 2 {
		t.Fatal("no misses generated")
	}
	for i := 1; i < len(missCycles); i++ {
		if missCycles[i]-missCycles[i-1] != 25 {
			t.Fatalf("deterministic gap = %d, want 25",
				missCycles[i]-missCycles[i-1])
		}
	}
}

func TestReadWriteMix(t *testing.T) {
	col := NewCollector()
	cfg := testConfig()
	cfg.Workload.T = 1 << 30
	cfg.Pattern = workload.Hotspot{P: 4, Hot: 3, Fraction: 1} // never local from PM 0
	pm := mustPM(t, 0, cfg, col)
	for now := int64(0); now < 200000; now++ {
		pm.Commit(now)
	}
	frac := float64(col.Reads) / float64(col.Reads+col.Writes)
	if frac < 0.65 || frac > 0.75 {
		t.Fatalf("read fraction = %v, want ~0.7", frac)
	}
}

func TestOutstandingWindowBlocks(t *testing.T) {
	col := NewCollector()
	cfg := testConfig()
	cfg.Workload.T = 2
	cfg.Pattern = workload.Hotspot{P: 4, Hot: 1, Fraction: 1}
	pm := mustPM(t, 0, cfg, col)
	for now := int64(0); now < 10000; now++ {
		pm.Commit(now)
		if pm.Outstanding() > 2 {
			t.Fatalf("outstanding = %d exceeds T=2", pm.Outstanding())
		}
	}
	if pm.Outstanding() != 2 {
		t.Fatalf("processor with no responses should saturate at T; got %d", pm.Outstanding())
	}
	if col.Issued != 2 {
		t.Fatalf("issued = %d, want 2", col.Issued)
	}
	// A response unblocks one slot.
	req, _ := pm.TakeRequest()
	resp := &packet.Packet{ID: 99, Type: packet.ReadResponse, Src: 1, Dst: 0, Issue: req.Issue, Flits: 5}
	pm.Deliver(resp, 50, false)
	if pm.Outstanding() != 1 {
		t.Fatalf("outstanding after response = %d", pm.Outstanding())
	}
	if col.Completed != 1 {
		t.Fatalf("completed = %d", col.Completed)
	}
}

func TestMemoryServiceProducesResponse(t *testing.T) {
	col := NewCollector()
	cfg := testConfig()
	cfg.MemLatency = 5
	pm := mustPM(t, 2, cfg, col)
	req := &packet.Packet{ID: 7, Type: packet.ReadRequest, Src: 0, Dst: 2, Issue: 100, Flits: 1}
	pm.Deliver(req, 110, false)
	if pm.QueuedInMemory() != 1 {
		t.Fatalf("memory queue = %d", pm.QueuedInMemory())
	}
	// Service takes 5 PM cycles: pick up on the first Commit, respond
	// after 5 more.
	var gotAt int64 = -1
	var resp *packet.Packet
	for now := int64(111); now < 130; now++ {
		pm.Commit(now)
		if gotAt < 0 {
			if p, ok := pm.TakeResponse(); ok {
				resp, gotAt = p, now
			}
		}
	}
	if gotAt < 0 {
		t.Fatal("no response produced")
	}
	if gotAt-111 != 5 {
		t.Fatalf("response after %d cycles, want 5", gotAt-111)
	}
	if resp.Type != packet.ReadResponse || resp.Dst != 0 || resp.Src != 2 {
		t.Fatalf("bad response %v", resp)
	}
	if resp.Issue != 100 {
		t.Fatalf("response must inherit Issue; got %d", resp.Issue)
	}
	if resp.Flits != packet.RingSizing.PacketFlits(packet.ReadResponse, 64) {
		t.Fatalf("response flits = %d", resp.Flits)
	}
}

func TestWriteGetsHeaderOnlyAck(t *testing.T) {
	col := NewCollector()
	cfg := testConfig()
	cfg.MemLatency = 1
	pm := mustPM(t, 1, cfg, col)
	req := &packet.Packet{ID: 8, Type: packet.WriteRequest, Src: 0, Dst: 1, Issue: 0,
		Flits: packet.RingSizing.PacketFlits(packet.WriteRequest, 64)}
	pm.Deliver(req, 0, false)
	for now := int64(1); now < 10; now++ {
		pm.Commit(now)
	}
	resp, ok := pm.TakeResponse()
	if !ok {
		t.Fatal("no response produced")
	}
	if resp.Type != packet.WriteResponse {
		t.Fatalf("type = %v", resp.Type)
	}
	if resp.Flits != 1 {
		t.Fatalf("write ack should be 1 ring flit, got %d", resp.Flits)
	}
}

func TestMemoryFIFOOrder(t *testing.T) {
	col := NewCollector()
	cfg := testConfig()
	cfg.MemLatency = 2
	pm := mustPM(t, 1, cfg, col)
	a := &packet.Packet{ID: 1, Type: packet.ReadRequest, Src: 0, Dst: 1, Flits: 1}
	b := &packet.Packet{ID: 2, Type: packet.ReadRequest, Src: 2, Dst: 1, Flits: 1}
	pm.Deliver(a, 0, false)
	pm.Deliver(b, 0, false)
	var order []int
	for now := int64(1); now < 20; now++ {
		pm.Commit(now)
		for {
			p, ok := pm.TakeResponse()
			if !ok {
				break
			}
			order = append(order, p.Dst)
		}
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 2 {
		t.Fatalf("service order = %v, want [0 2]", order)
	}
}

func TestDeliverWrongPMPanics(t *testing.T) {
	col := NewCollector()
	pm := mustPM(t, 0, testConfig(), col)
	defer func() {
		if recover() == nil {
			t.Fatal("misrouted packet accepted")
		}
	}()
	pm.Deliver(&packet.Packet{ID: 1, Type: packet.ReadRequest, Src: 1, Dst: 3, Flits: 1}, 0, false)
}

// A response a double-speed global ring hands over in its second step
// of a cycle arrives half a PM cycle late, and its latency says so.
func TestCollectorLatencyNormalization(t *testing.T) {
	col := NewCollector()
	pm := mustPM(t, 0, testConfig(), col)
	for _, late := range []bool{false, true} {
		pm.outstanding, col.inFlight = 1, 1
		pm.Deliver(&packet.Packet{Type: packet.ReadResponse, Src: 1, Dst: 0, Issue: 50, Flits: 1}, 100, late)
		col.Latency.CloseBatch()
	}
	// First batch is discarded; second holds the late one.
	if got := col.Latency.Mean(); got != 50.5 {
		t.Fatalf("late delivery latency = %v, want 50.5", got)
	}
}

func TestCollectorInFlight(t *testing.T) {
	col := NewCollector()
	if col.InFlight() {
		t.Fatal("fresh collector reports in-flight")
	}
	col.issued(true)
	if !col.InFlight() || col.inFlight != 1 {
		t.Fatal("issued not tracked")
	}
	col.completed(10)
	if col.InFlight() {
		t.Fatal("completed not tracked")
	}
}

func TestInjectionQueuesFIFO(t *testing.T) {
	col := NewCollector()
	cfg := testConfig()
	cfg.Workload.T = 8
	cfg.Pattern = workload.Hotspot{P: 4, Hot: 2, Fraction: 1}
	pm := mustPM(t, 0, cfg, col)
	for now := int64(0); now < 1000 && col.Issued < 3; now++ {
		pm.Commit(now)
	}
	if col.Issued < 3 {
		t.Fatal("not enough requests generated")
	}
	var ids []uint64
	for {
		p, ok := pm.TakeRequest()
		if !ok {
			break
		}
		ids = append(ids, p.ID)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("pending requests out of order: %v", ids)
		}
	}
}

// In open-loop mode a miss queues when the window is full and issues
// when a response frees a slot. Draining the queue must shift in place:
// re-slicing from the front creeps the backing array forward and
// reallocates it forever.
func TestOpenLoopMissQueueDoesNotCreep(t *testing.T) {
	col := NewCollector()
	cfg := testConfig()
	cfg.Workload.OpenLoop = true
	cfg.Workload.Deterministic = true
	cfg.Workload.T = 1
	cfg.Pattern = workload.Hotspot{P: 4, Hot: 1, Fraction: 1}
	pm := mustPM(t, 0, cfg, col)
	// The PM keeps absolute due ticks, so time only moves forward, also
	// across AllocsPerRun's warm-up call.
	now := int64(0)
	step := func() {
		pm.Commit(now)
		if req, ok := pm.TakeRequest(); ok { // answer at once: the window never stays full
			pm.Deliver(&packet.Packet{Type: packet.ReadResponse, Src: 1, Dst: 0, Issue: req.Issue, Flits: 5}, now, false)
		}
		now++
	}
	for now < 1000 {
		step()
	}
	if col.Issued == 0 {
		t.Fatal("no misses issued")
	}
	// 400 misses, each one request packet plus the test's response.
	if avg := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10000; i++ {
			step()
		}
	}); avg != 2*400 {
		t.Fatalf("%.0f allocations for 400 open-loop misses, want 800 (the packets)", avg)
	}
}

// countdownPM is the reference the due-tick PM is held to: the PM as
// it was when every Commit counted the processor's gap and the memory's
// service time down by one PM cycle. It shares the PM's queues,
// generator and collector hooks, so only the scheduling differs.
type countdownPM struct {
	*PM
	gap       int // PM cycles until the next miss fires
	memRemain int // PM cycles left on the request in service
}

func newCountdownPM(t *testing.T, id int, cfg Config, col *Collector) *countdownPM {
	pm := mustPM(t, id, cfg, col)
	return &countdownPM{PM: pm, gap: pm.gap}
}

func (c *countdownPM) Commit(now int64) {
	c.stepMemory(now)
	c.stepProcessor(now)
}

func (c *countdownPM) stepMemory(now int64) {
	pm := c.PM
	if pm.memServing != nil {
		c.memRemain--
		if c.memRemain > 0 {
			return
		}
		req := pm.memServing
		pm.memServing = nil
		resp := &packet.Packet{
			ID:    pm.col.allocID(),
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
		c.memRemain = pm.memLatency
	}
}

func (c *countdownPM) stepProcessor(now int64) {
	pm := c.PM
	open := pm.cfg.Workload.OpenLoop
	if !open && pm.outstanding >= pm.cfg.Workload.T {
		return
	}
	c.gap--
	if c.gap <= 0 {
		c.gap = pm.sampleGap()
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

// committer is a PM under test: its Port plus the engine's Commit.
type committer interface {
	Port
	Commit(now int64)
}

// driveRandomNetwork plays a seeded random network against PM 0 of a
// 4-PM system and returns its log: every packet the PM hands out (type,
// src, dst, issue cycle, pickup tick), every completion latency, and
// the collector's totals. The network takes tpc ticks per PM cycle, as
// a double-speed global ring takes two; it picks each class up with
// probability 1/2 per tick, answers each request 1-60 ticks later, and
// sends requests of its own, and a delivery in a cycle's second tick
// is late. Its choices depend only on the seed and on what the PM did,
// so two PMs that behave identically produce identical logs.
func driveRandomNetwork(pm committer, col *Collector, tpc int64, seed uint64, ticks int64) []string {
	net := rng.New(seed)
	type arrival struct {
		at int64
		p  *packet.Packet
	}
	var inbound []arrival
	var log []string
	for now := int64(0); now < ticks; now++ {
		cycle := now / tpc
		if now%tpc == 0 {
			pm.Commit(cycle)
		}
		if net.Bernoulli(0.5) {
			if p, ok := pm.TakeResponse(); ok {
				log = append(log, fmt.Sprintf("%d out %v %d->%d issue %d", now, p.Type, p.Src, p.Dst, p.Issue))
			}
		}
		if net.Bernoulli(0.5) {
			if p, ok := pm.TakeRequest(); ok {
				log = append(log, fmt.Sprintf("%d out %v %d->%d issue %d", now, p.Type, p.Src, p.Dst, p.Issue))
				resp := &packet.Packet{Type: packet.ResponseFor(p.Type), Src: p.Dst, Dst: 0, Issue: p.Issue, Flits: 1}
				inbound = append(inbound, arrival{now + 1 + int64(net.Intn(60)), resp})
			}
		}
		if net.Bernoulli(0.03) {
			req := &packet.Packet{Type: packet.ReadRequest, Src: 1 + net.Intn(3), Dst: 0, Issue: cycle, Flits: 1}
			inbound = append(inbound, arrival{now + 1 + int64(net.Intn(60)), req})
		}
		inbound = slices.DeleteFunc(inbound, func(a arrival) bool {
			if a.at != now {
				return false
			}
			pm.Deliver(a.p, cycle, now%tpc == 1)
			if a.p.Type.IsResponse() {
				log = append(log, fmt.Sprintf("%d done latency %d", now, cycle-a.p.Issue))
			}
			return true
		})
	}
	return append(log, fmt.Sprintf("issued %d completed %d local %d reads %d writes %d mean %v",
		col.Issued, col.Completed, col.Local, col.Reads, col.Writes, col.Latency.Mean()))
}

// TestDueTicksMatchCountdown holds the due-cycle PM to the countdown
// reference through the same random delivery schedule, in both
// generator modes, with one and two network ticks per PM cycle (the
// second delivering late) and at a short and the default memory
// latency.
func TestDueTicksMatchCountdown(t *testing.T) {
	for _, open := range []bool{false, true} {
		for _, det := range []bool{false, true} {
			for _, tpc := range []int64{1, 2} {
				for _, memLat := range []int{1, 10} {
					name := fmt.Sprintf("open=%v/det=%v/tpc=%d/mem=%d", open, det, tpc, memLat)
					t.Run(name, func(t *testing.T) {
						cfg := testConfig()
						cfg.Workload.C, cfg.Workload.T = 0.1, 2
						cfg.Workload.OpenLoop, cfg.Workload.Deterministic = open, det
						cfg.MemLatency = memLat
						const seed, ticks = 7, 20000
						wantCol, gotCol := NewCollector(), NewCollector()
						want := driveRandomNetwork(newCountdownPM(t, 0, cfg, wantCol), wantCol, tpc, seed, ticks)
						got := driveRandomNetwork(mustPM(t, 0, cfg, gotCol), gotCol, tpc, seed, ticks)
						if gotCol.Completed < 100 {
							t.Fatalf("only %d completions: the schedule exercises too little", gotCol.Completed)
						}
						for i := range min(len(got), len(want)) {
							if got[i] != want[i] {
								t.Fatalf("event %d: got %q, countdown reference %q", i, got[i], want[i])
							}
						}
						if len(got) != len(want) {
							t.Fatalf("%d events, countdown reference %d", len(got), len(want))
						}
					})
				}
			}
		}
	}
}

// fixedTarget sends every reference to one PM.
type fixedTarget int

func (f fixedTarget) Target(int, *rng.Source) int { return int(f) }
func (f fixedTarget) String() string              { return fmt.Sprintf("to pm%d", int(f)) }

// The bit a network binds follows the PM's pending lists: a request
// append sets it, a memory response append sets it, and it clears only
// once both lists have drained. The PM touches no other bit of the
// word.
func TestPendingBitFollowsLists(t *testing.T) {
	const others, bit = uint64(0b1001), uint64(0b0100)
	bound := func(t *testing.T, id int, target fixedTarget) (*PM, *uint64) {
		t.Helper()
		cfg := testConfig()
		cfg.Workload.C, cfg.Workload.Deterministic = 1, true // a miss every cycle
		cfg.Pattern, cfg.MemLatency = target, 1
		pm := mustPM(t, id, cfg, NewCollector())
		word := others
		pm.BindPending(&word, bit)
		if word != others {
			t.Fatalf("binding an empty PM set its bit: %#b", word)
		}
		return pm, &word
	}

	t.Run("request", func(t *testing.T) {
		pm, word := bound(t, 0, 1)
		pm.Commit(0) // the first miss, to pm1
		if *word != others|bit || !pm.HasPending() {
			t.Fatalf("after a request append the word is %#b, want %#b", *word, others|bit)
		}
	})

	t.Run("memory response", func(t *testing.T) {
		pm, word := bound(t, 0, 0) // every miss local: no request is ever queued
		pm.Deliver(&packet.Packet{ID: 1, Type: packet.ReadRequest, Src: 2, Dst: 0, Flits: 1}, 0, false)
		pm.Commit(0) // the memory takes the request
		if *word != others {
			t.Fatalf("the word is %#b before any packet is pending", *word)
		}
		pm.Commit(1) // and answers it
		if *word != others|bit {
			t.Fatalf("after a response append the word is %#b, want %#b", *word, others|bit)
		}
	})

	t.Run("drain", func(t *testing.T) {
		pm, word := bound(t, 0, 1)
		pm.Deliver(&packet.Packet{ID: 1, Type: packet.ReadRequest, Src: 2, Dst: 0, Flits: 1}, 0, false)
		pm.Commit(0) // a request out, the memory busy
		pm.Commit(1) // the response, and another request
		if _, ok := pm.TakeResponse(); !ok || *word != others|bit {
			t.Fatalf("with requests still pending the word is %#b, want %#b", *word, others|bit)
		}
		for pm.HasPending() {
			if *word != others|bit {
				t.Fatalf("the bit cleared with packets pending: %#b", *word)
			}
			pm.TakeRequest()
		}
		if *word != others {
			t.Fatalf("after both lists drained the word is %#b, want %#b", *word, others)
		}
		if _, ok := pm.TakeRequest(); ok || *word != others {
			t.Fatalf("a take from empty lists left the word %#b", *word)
		}
	})
}
