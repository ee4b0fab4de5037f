package node

import (
	"testing"

	"ringmesh/internal/packet"
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
	col := NewCollector(1)
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
	col := NewCollector(1)
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
	col := NewCollector(1)
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
	col := NewCollector(1)
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
	req, _ := pm.PendingRequest()
	resp := &packet.Packet{ID: 99, Type: packet.ReadResponse, Src: 1, Dst: 0, Issue: req.Issue, Flits: 5}
	pm.Deliver(resp, 50)
	if pm.Outstanding() != 1 {
		t.Fatalf("outstanding after response = %d", pm.Outstanding())
	}
	if col.Completed != 1 {
		t.Fatalf("completed = %d", col.Completed)
	}
}

func TestMemoryServiceProducesResponse(t *testing.T) {
	col := NewCollector(1)
	cfg := testConfig()
	cfg.MemLatency = 5
	pm := mustPM(t, 2, cfg, col)
	req := &packet.Packet{ID: 7, Type: packet.ReadRequest, Src: 0, Dst: 2, Issue: 100, Flits: 1}
	pm.Deliver(req, 110)
	if pm.QueuedInMemory() != 1 {
		t.Fatalf("memory queue = %d", pm.QueuedInMemory())
	}
	// Service takes 5 PM cycles: pick up on the first Commit, respond
	// after 5 more.
	var gotAt int64 = -1
	for now := int64(111); now < 130; now++ {
		pm.Commit(now)
		if _, ok := pm.PendingResponse(); ok && gotAt < 0 {
			gotAt = now
		}
	}
	if gotAt < 0 {
		t.Fatal("no response produced")
	}
	if gotAt-111 != 5 {
		t.Fatalf("response after %d cycles, want 5", gotAt-111)
	}
	resp := pm.PopPendingResponse()
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
	col := NewCollector(1)
	cfg := testConfig()
	cfg.MemLatency = 1
	pm := mustPM(t, 1, cfg, col)
	req := &packet.Packet{ID: 8, Type: packet.WriteRequest, Src: 0, Dst: 1, Issue: 0,
		Flits: packet.RingSizing.PacketFlits(packet.WriteRequest, 64)}
	pm.Deliver(req, 0)
	for now := int64(1); now < 10; now++ {
		pm.Commit(now)
	}
	resp := pm.PopPendingResponse()
	if resp.Type != packet.WriteResponse {
		t.Fatalf("type = %v", resp.Type)
	}
	if resp.Flits != 1 {
		t.Fatalf("write ack should be 1 ring flit, got %d", resp.Flits)
	}
}

func TestMemoryFIFOOrder(t *testing.T) {
	col := NewCollector(1)
	cfg := testConfig()
	cfg.MemLatency = 2
	pm := mustPM(t, 1, cfg, col)
	a := &packet.Packet{ID: 1, Type: packet.ReadRequest, Src: 0, Dst: 1, Flits: 1}
	b := &packet.Packet{ID: 2, Type: packet.ReadRequest, Src: 2, Dst: 1, Flits: 1}
	pm.Deliver(a, 0)
	pm.Deliver(b, 0)
	var order []int
	for now := int64(1); now < 20; now++ {
		pm.Commit(now)
		for {
			if _, ok := pm.PendingResponse(); !ok {
				break
			}
			order = append(order, pm.PopPendingResponse().Dst)
		}
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 2 {
		t.Fatalf("service order = %v, want [0 2]", order)
	}
}

func TestDeliverWrongPMPanics(t *testing.T) {
	col := NewCollector(1)
	pm := mustPM(t, 0, testConfig(), col)
	defer func() {
		if recover() == nil {
			t.Fatal("misrouted packet accepted")
		}
	}()
	pm.Deliver(&packet.Packet{ID: 1, Type: packet.ReadRequest, Src: 1, Dst: 3, Flits: 1}, 0)
}

func TestCollectorLatencyNormalization(t *testing.T) {
	col := NewCollector(2) // double-speed: 2 ticks per PM cycle
	col.inFlight = 1
	col.completed(100) // 100 ticks = 50 PM cycles
	col.Latency.CloseBatch()
	col.inFlight = 1
	col.completed(100)
	col.Latency.CloseBatch()
	// First batch is discarded; second holds 50.
	if got := col.Latency.Mean(); got != 50 {
		t.Fatalf("normalized latency = %v, want 50", got)
	}
}

func TestCollectorInFlight(t *testing.T) {
	col := NewCollector(1)
	if col.InFlight() {
		t.Fatal("fresh collector reports in-flight")
	}
	col.issued(true)
	if !col.InFlight() || col.Outstanding() != 1 {
		t.Fatal("issued not tracked")
	}
	col.completed(10)
	if col.InFlight() {
		t.Fatal("completed not tracked")
	}
}

func TestInjectionQueuesFIFO(t *testing.T) {
	col := NewCollector(1)
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
		if _, ok := pm.PendingRequest(); !ok {
			break
		}
		ids = append(ids, pm.PopPendingRequest().ID)
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
	col := NewCollector(1)
	cfg := testConfig()
	cfg.Workload.OpenLoop = true
	cfg.Workload.Deterministic = true
	cfg.Workload.T = 1
	cfg.Pattern = workload.Hotspot{P: 4, Hot: 1, Fraction: 1}
	pm := mustPM(t, 0, cfg, col)
	step := func(now int64) {
		pm.Commit(now)
		if req, ok := pm.PendingRequest(); ok { // answer at once: the window never stays full
			pm.PopPendingRequest()
			pm.Deliver(&packet.Packet{Type: packet.ReadResponse, Src: 1, Dst: 0, Issue: req.Issue, Flits: 5}, now)
		}
	}
	for now := int64(0); now < 1000; now++ {
		step(now)
	}
	if col.Issued == 0 {
		t.Fatal("no misses issued")
	}
	// 400 misses, each one request packet plus the test's response.
	if avg := testing.AllocsPerRun(1, func() {
		for now := int64(1000); now < 11000; now++ {
			step(now)
		}
	}); avg != 2*400 {
		t.Fatalf("%.0f allocations for 400 open-loop misses, want 800 (the packets)", avg)
	}
}
