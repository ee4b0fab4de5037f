package mesh

import (
	"strings"
	"testing"
	"unsafe"

	"ringmesh/internal/node"
	"ringmesh/internal/packet"
	"ringmesh/internal/sim"
	"ringmesh/internal/topo"
)

type fakePM struct {
	pendReq   []*packet.Packet
	pendResp  []*packet.Packet
	delivered []*packet.Packet
	deliverAt []int64
	// word and bit are the pending signal the network bound (nil until
	// it binds, as for the reference ticks, which poll the fake).
	word *uint64
	bit  uint64
}

func (f *fakePM) TakeResponse() (*packet.Packet, bool) { return f.take(&f.pendResp) }
func (f *fakePM) TakeRequest() (*packet.Packet, bool)  { return f.take(&f.pendReq) }
func (f *fakePM) take(q *[]*packet.Packet) (*packet.Packet, bool) {
	if len(*q) == 0 {
		return nil, false
	}
	p := (*q)[0]
	*q = (*q)[1:]
	f.signal()
	return p, true
}
func (f *fakePM) BindPending(word *uint64, bit uint64) { f.word, f.bit = word, bit; f.signal() }

// addReq and addResp queue p for the NIC, as a PM's commit does.
func (f *fakePM) addReq(p *packet.Packet)  { f.pendReq = append(f.pendReq, p); f.signal() }
func (f *fakePM) addResp(p *packet.Packet) { f.pendResp = append(f.pendResp, p); f.signal() }

// signal sets the bound pending bit to HasPending.
func (f *fakePM) signal() {
	if f.word == nil {
		return
	}
	if f.HasPending() {
		*f.word |= f.bit
	} else {
		*f.word &^= f.bit
	}
}
func (f *fakePM) Deliver(p *packet.Packet, now int64, _ bool) {
	f.delivered = append(f.delivered, p)
	f.deliverAt = append(f.deliverAt, now)
}
func (f *fakePM) HasPending() bool { return len(f.pendResp)+len(f.pendReq) > 0 }

type harness struct {
	engine *sim.Engine
	net    *Network
	pms    []*fakePM
	spec   topo.MeshSpec
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	engine := &sim.Engine{}
	pms := make([]*fakePM, cfg.Spec.PMs())
	ports := make([]node.Port, len(pms))
	for i := range pms {
		pms[i] = &fakePM{}
		ports[i] = pms[i]
	}
	net, err := New(cfg, ports, engine)
	if err != nil {
		t.Fatal(err)
	}
	engine.Register(net, 1)
	return &harness{engine: engine, net: net, pms: pms, spec: cfg.Spec}
}

func (h *harness) run(t *testing.T, ticks int) {
	t.Helper()
	for i := 0; i < ticks; i++ {
		h.engine.Step()
		if err := h.net.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func mkPkt(id uint64, typ packet.Type, src, dst, lineBytes int) *packet.Packet {
	return &packet.Packet{
		ID: id, Type: typ, Src: src, Dst: dst,
		Flits: packet.MeshSizing.PacketFlits(typ, lineBytes),
	}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{Spec: topo.MustMeshSpec(3), LineBytes: 32, BufferFlits: 4},
		{Spec: topo.MustMeshSpec(3), LineBytes: 128, BufferFlits: 36}, // cl, the paper's deepest
		{Spec: topo.MustMeshSpec(3), LineBytes: 32, BufferFlits: MaxBufferFlits},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Fatalf("good config %d: %v", i, err)
		}
	}
	bad := []Config{
		{Spec: topo.MeshSpec{K: 0}, LineBytes: 32},
		{Spec: topo.MustMeshSpec(3), LineBytes: 0},
		{Spec: topo.MustMeshSpec(3), LineBytes: 32, BufferFlits: -1},
		{Spec: topo.MustMeshSpec(3), LineBytes: 32, BufferFlits: MaxBufferFlits + 1},
		{Spec: topo.MeshSpec{K: 33}, LineBytes: 32, BufferFlits: 4}, // 1 089 PMs
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestBufferDepthResolution(t *testing.T) {
	c := Config{Spec: topo.MustMeshSpec(2), LineBytes: 64, BufferFlits: 0}
	if c.bufferFlits() != 20 { // cl for 64B mesh lines
		t.Fatalf("cl depth = %d, want 20", c.bufferFlits())
	}
	c.BufferFlits = 4
	if c.bufferFlits() != 4 {
		t.Fatalf("explicit depth = %d", c.bufferFlits())
	}
}

func TestNewRejectsWrongPMCount(t *testing.T) {
	engine := &sim.Engine{}
	if _, err := New(Config{Spec: topo.MustMeshSpec(2), LineBytes: 32},
		make([]node.Port, 3), engine); err == nil {
		t.Fatal("wrong PM count accepted")
	}
}

// One request to a neighbour: injection streams flits into the local
// FIFO, the router forwards, the far router ejects on tail.
func TestNeighborDelivery(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustMeshSpec(2), LineBytes: 32, BufferFlits: 4})
	p := mkPkt(1, packet.ReadRequest, 0, 1, 32) // 4 flits
	h.pms[0].addReq(p)
	h.run(t, 30)
	if len(h.pms[1].delivered) != 1 {
		t.Fatal("packet not delivered")
	}
	// Pipeline: reload at commit 0, inject flits at ticks 1..4, hop
	// at 2..5, eject at 3..6 → tail at tick 6.
	if got := h.pms[1].deliverAt[0]; got != 6 {
		t.Fatalf("delivered at %d, want 6", got)
	}
}

// Zero-load delivery across the diagonal follows the e-cube distance:
// injection starts at tick 1, the tail flit enters the network
// flits-1 cycles later, crosses hops links, and is ejected one cycle
// after reaching the destination router: tail delivery =
// 1 + hops + flits.
func TestZeroLoadLatencyMatchesHops(t *testing.T) {
	spec := topo.MustMeshSpec(4)
	for _, c := range []struct{ src, dst int }{{0, 15}, {3, 12}, {5, 6}, {1, 13}} {
		h := newHarness(t, Config{Spec: spec, LineBytes: 32, BufferFlits: 4})
		p := mkPkt(1, packet.WriteRequest, c.src, c.dst, 32) // 12 flits
		h.pms[c.src].addReq(p)
		h.run(t, 100)
		if len(h.pms[c.dst].delivered) != 1 {
			t.Fatalf("%d->%d not delivered", c.src, c.dst)
		}
		want := int64(1 + spec.HopDistance(c.src, c.dst) + p.Flits)
		if got := h.pms[c.dst].deliverAt[0]; got != want {
			t.Fatalf("%d->%d delivered at %d, want %d", c.src, c.dst, got, want)
		}
	}
}

// Self-addressed packets eject locally without touching mesh links.
func TestLocalLoopback(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustMeshSpec(2), LineBytes: 32, BufferFlits: 4})
	p := mkPkt(1, packet.ReadRequest, 0, 0, 32)
	h.pms[0].addReq(p)
	h.run(t, 20)
	if len(h.pms[0].delivered) != 1 {
		t.Fatal("loopback packet not delivered")
	}
	if u, _ := meshUtil(h.net); u != 0 {
		t.Fatal("loopback must not use inter-router links")
	}
}

// Wormhole: a long packet holds its path; a second packet sharing a
// link waits and both arrive intact.
func TestWormholeContention(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustMeshSpec(3), LineBytes: 128, BufferFlits: 4})
	// 0 -> 2 and 3 -> 2 share the link into router 2's column? Use
	// 0->2 (east,east) and 1->2 (east): both use link 1->2.
	h.pms[0].addResp(mkPkt(1, packet.ReadResponse, 0, 2, 128)) // 36 flits
	h.pms[1].addResp(mkPkt(2, packet.ReadResponse, 1, 2, 128))
	h.run(t, 300)
	if len(h.pms[2].delivered) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(h.pms[2].delivered))
	}
}

// 1-flit buffers still deliver correctly (heavier stalling).
func TestOneFlitBuffers(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustMeshSpec(3), LineBytes: 64, BufferFlits: 1})
	for i := 0; i < 4; i++ {
		h.pms[0].addResp(mkPkt(uint64(1+i), packet.ReadResponse, 0, 8, 64))
	}
	h.run(t, 1000)
	if len(h.pms[8].delivered) != 4 {
		t.Fatalf("delivered %d packets, want 4", len(h.pms[8].delivered))
	}
}

// Responses are injected before requests.
func TestResponseInjectionPriority(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustMeshSpec(2), LineBytes: 32, BufferFlits: 4})
	h.pms[0].addReq(mkPkt(1, packet.ReadRequest, 0, 1, 32))
	h.pms[0].addResp(mkPkt(2, packet.ReadResponse, 0, 1, 32))
	h.run(t, 60)
	if len(h.pms[1].delivered) != 2 {
		t.Fatalf("delivered %d", len(h.pms[1].delivered))
	}
	if h.pms[1].delivered[0].ID != 2 {
		t.Fatal("response was not injected first")
	}
}

// Dimension-order routing: a packet from the north-west corner to the
// south-east corner must travel along the top row first (X), then
// down the last column (Y). We verify by checking link utilization is
// confined to those links.
func TestEcubePathShape(t *testing.T) {
	spec := topo.MustMeshSpec(3)
	h := newHarness(t, Config{Spec: spec, LineBytes: 16, BufferFlits: 4})
	h.pms[0].addReq(mkPkt(1, packet.ReadRequest, 0, 8, 16))
	h.run(t, 50)
	if len(h.pms[8].delivered) != 1 {
		t.Fatal("not delivered")
	}
	// Routers on the e-cube path 0→1→2→5→8 must have sent flits;
	// others must not.
	onPath := map[int]bool{0: true, 1: true, 2: true, 5: true}
	for id := range h.net.routers {
		busy := false
		for o := topo.Direction(0); o < topo.Local; o++ {
			if h.net.linkUtil[id][o] > 0 {
				busy = true
			}
		}
		if onPath[id] && !busy {
			t.Fatalf("router %d on path shows no traffic", id)
		}
		if !onPath[id] && busy {
			t.Fatalf("router %d off path shows traffic", id)
		}
	}
}

// An all-to-all storm on a mesh with deep buffers drains completely
// (deterministic e-cube is deadlock-free).
func TestStormDrains(t *testing.T) {
	spec := topo.MustMeshSpec(4)
	h := newHarness(t, Config{Spec: spec, LineBytes: 32, BufferFlits: 4})
	id := uint64(1)
	total := 0
	for s := 0; s < spec.PMs(); s++ {
		for k := 1; k <= 5; k++ {
			d := (s*3 + k*7) % spec.PMs()
			if d == s {
				continue
			}
			h.pms[s].addReq(mkPkt(id, packet.WriteRequest, s, d, 32))
			id++
			total++
		}
	}
	h.run(t, 5000)
	got := 0
	for _, pm := range h.pms {
		got += len(pm.delivered)
	}
	if got != total {
		t.Fatalf("delivered %d of %d", got, total)
	}
	if h.net.BufferedFlits() != 0 {
		t.Fatalf("%d flits left in buffers", h.net.BufferedFlits())
	}
}

// Round-robin arbitration: two inputs competing for one output share
// it over time — both streams complete even under sustained pressure.
func TestRoundRobinFairness(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustMeshSpec(3), LineBytes: 16, BufferFlits: 4})
	// Streams 0->5 (E,E,S?) no: 0=(0,0), 5=(2,1): E,E,S. 2->8? Use
	// targets that converge on router 4's east output: 3->5 and
	// PM 4 -> 5: both use router 4's east link.
	for i := 0; i < 6; i++ {
		h.pms[3].addResp(mkPkt(uint64(100+i), packet.ReadResponse, 3, 5, 16))
		h.pms[4].addResp(mkPkt(uint64(200+i), packet.ReadResponse, 4, 5, 16))
	}
	h.run(t, 1000)
	if len(h.pms[5].delivered) != 12 {
		t.Fatalf("delivered %d, want 12", len(h.pms[5].delivered))
	}
	// Neither stream finishes entirely before the other starts: find
	// positions of each stream's first delivery.
	first100, first200 := -1, -1
	for i, p := range h.pms[5].delivered {
		if p.ID >= 200 && first200 < 0 {
			first200 = i
		}
		if p.ID < 200 && first100 < 0 {
			first100 = i
		}
	}
	if first100 > 6 || first200 > 6 {
		t.Fatalf("arbitration starved a stream: first deliveries at %d/%d", first100, first200)
	}
}

// Utilization: a single 1-hop, 8-flit packet over t ticks gives
// 8 busy link-cycles at the sending router.
func TestUtilizationAccounting(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustMeshSpec(2), LineBytes: 16, BufferFlits: 8})
	h.pms[0].addResp(mkPkt(1, packet.ReadResponse, 0, 1, 16)) // 8 flits
	h.run(t, 20)
	if len(h.pms[1].delivered) != 1 {
		t.Fatal("not delivered")
	}
	// 8 busy cycles over 20 ticks x 8 directed links.
	want := 8.0 / 160.0
	if got, links := meshUtil(h.net); links != 8 || got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("utilization over %d links = %v, want %v over 8", links, got, want)
	}
}

// meshUtil merges every listed link's counts since the build, as the
// runner does for MeshUtilization, and says how many links it merged.
func meshUtil(n *Network) (float64, int) {
	var busy, capacity int64
	links := 0
	for _, g := range n.Links() {
		b, c := g.Since(sim.LinkMark{})
		busy, capacity, links = busy+b, capacity+c, links+len(g.Busy)
	}
	return sim.Utilization(busy, capacity), links
}

// The build-time geometry the tick runs on must be topo.MeshSpec's: for
// every router, each neighbour pointer equals Neighbor, and a packet
// head pushed into and decoded at that router sets exactly its input's
// bit in the request mask of the port Route names, for every
// destination.
func TestGeometryMatchesSpec(t *testing.T) {
	for k := 1; k <= 12; k++ {
		spec := topo.MustMeshSpec(k)
		h := newHarness(t, Config{Spec: spec, LineBytes: 32, BufferFlits: 1})
		for id := range h.net.routers {
			r := &h.net.routers[id]
			if x, y := spec.Coord(id); int(r.id) != id || int(r.x) != x || int(r.y) != y {
				t.Fatalf("K=%d router %d: built as id %d at (%d,%d)", k, id, r.id, r.x, r.y)
			}
			for o := topo.Direction(0); o < topo.Local; o++ {
				want := spec.Neighbor(id, o)
				if opposite[o] != o.Opposite() {
					t.Fatalf("opposite[%s] = %s", o, opposite[o])
				}
				if got := r.nbr[o]; (got == nil) != (want < 0) || got != nil && int(got.id) != want {
					t.Fatalf("K=%d router %d %s: neighbour %v, want id %d", k, id, o, got, want)
				}
			}
			for dst := 0; dst < spec.PMs(); dst++ {
				in := topo.Direction(dst % int(topo.NumPorts))
				h.net.push(r, in, flit{pkt: mkPkt(1, packet.ReadRequest, 0, dst, 32)})
				var hd heads
				busy := r.decode(&hd)
				h.net.pop(r, in)
				want := spec.Route(id, dst)
				var wantReq [topo.NumPorts]uint8
				wantReq[want] = 1 << in
				if !busy || [topo.NumPorts]uint8(hd.req[:topo.NumPorts]) != wantReq || hd.wanted != 1<<want {
					t.Fatalf("K=%d router %d → %d via %s input: decoded requests %05b (outputs %05b), Route says %s",
						k, id, dst, in, hd.req, hd.wanted, want)
				}
			}
		}
	}
}

// CheckInvariants, which every harness runs between ticks, fails when
// a router's staged mask, a staged move or a staged input outlives its
// tick, an output's lock bit disagrees with its lock, an input holds
// more flits than its depth, a queued head carries an output that is
// not the e-cube route from the router holding it, or an input's front
// route disagrees with its front flit.
func TestCheckInvariantsCatchesStagedMoves(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MeshSpec{K: 2}, LineBytes: 32, BufferFlits: 4})
	r := &h.net.routers[1]
	r.stagedOut = 1 << topo.East
	if err := h.net.CheckInvariants(); err == nil {
		t.Error("a staged-output bit survived the tick, but CheckInvariants passed")
	}
	r.stagedOut = 0
	r.staged[topo.East] = flit{idx: 1}
	if err := h.net.CheckInvariants(); err == nil {
		t.Error("a staged move survived the tick, but CheckInvariants passed")
	}
	r.staged[topo.East] = flit{}
	r.stagedIn[topo.East] = int8(topo.North)
	if err := h.net.CheckInvariants(); err == nil {
		t.Error("a staged input survived the tick, but CheckInvariants passed")
	}
	r.stagedIn[topo.East] = int8(noPort)
	r.injStaged = true
	if err := h.net.CheckInvariants(); err == nil {
		t.Error("a staged injection survived the tick, but CheckInvariants passed")
	}
	r.injStaged = false
	r.lockedOut = 1 << topo.South
	if err := h.net.CheckInvariants(); err == nil {
		t.Error("an output's lock bit is set without a lock, but CheckInvariants passed")
	}
	r.lockedOut = 0
	r.outLock[topo.South] = &packet.Packet{}
	if err := h.net.CheckInvariants(); err == nil {
		t.Error("an output is locked without its lock bit, but CheckInvariants passed")
	}
	r.outLock[topo.South] = nil
	r.qn[topo.West] = uint16(h.net.depth) + 1
	if err := h.net.CheckInvariants(); err == nil {
		t.Error("an input holds more flits than its depth, but CheckInvariants passed")
	}
	r.qn[topo.West] = 0

	// Router 1 sits at (1, 0): a head for PM 3 at (1, 1) goes south.
	// Queue it behind a body flit, so the check must look past the
	// input's front, then misroute it as if it were still at router 0.
	h.net.push(r, topo.West, flit{pkt: mkPkt(1, packet.ReadRequest, 0, 2, 32), idx: 1})
	h.net.push(r, topo.West, flit{pkt: mkPkt(2, packet.ReadRequest, 0, 3, 32)})
	if err := h.net.CheckInvariants(); err != nil {
		t.Fatalf("a correctly routed head fails CheckInvariants: %v", err)
	}
	head := h.net.queued(r, topo.West, 1)
	if topo.Direction(head.out) != topo.South {
		t.Fatalf("push routed the head %s at router 1, want south", topo.Direction(head.out))
	}
	h.net.slab[h.net.slot(r, topo.West, 1)].out = int8(topo.East)
	if err := h.net.CheckInvariants(); err == nil {
		t.Error("a queued head carries another router's route, but CheckInvariants passed")
	}
	h.net.slab[h.net.slot(r, topo.West, 1)].out = int8(topo.South)
	r.frontOut[topo.West] = int8(topo.South)
	if err := h.net.CheckInvariants(); err == nil {
		t.Error("an input's front route disagrees with its front flit, but CheckInvariants passed")
	}
}

// The router's hot state must stay small: a tick visits every router,
// and 808 bytes a router (13 cache lines) was what the packed layout
// replaced. Growing it past the bound is a decision to make in the
// open, with a ledger row that shows it pays.
func TestRouterFootprint(t *testing.T) {
	const bound = 232
	if got := unsafe.Sizeof(router{}); got > bound {
		t.Fatalf("router is %d bytes, bound %d", got, bound)
	}
}

// BuildStallReport asks pickMove the same question the switching logic
// asks, so the waits it names are pinned here edge for edge, between
// input channels. Two writes from routers 0 and 1 to router 2 contend
// for router 1's east output: router 1's own worm wins it, so the worm
// from router 0 backs up behind a full input. Behind one-flit buffers a
// worm also moves every other cycle, and its locked output waits on the
// input upstream that holds the worm.
func TestStallReportWaitEdges(t *testing.T) {
	cases := []struct {
		buf, at int
		want    []string
	}{
		{4, 10, []string{
			"router0.local -> router1.west: east carrying #1 write-req 0→2 (12 flits): downstream input full",
		}},
		{1, 4, []string{
			"router0.local -> router1.west: east carrying #1 write-req 0→2 (12 flits): downstream input full",
			"router2.west -> router1.local: committed worm on local output, flits still upstream",
		}},
	}
	for _, tc := range cases {
		h := newHarness(t, Config{Spec: topo.MustMeshSpec(3), LineBytes: 32, BufferFlits: tc.buf})
		h.pms[0].addReq(mkPkt(1, packet.WriteRequest, 0, 2, 32))
		h.pms[1].addReq(mkPkt(2, packet.WriteRequest, 1, 2, 32))
		h.run(t, tc.at)
		var got []string
		for _, e := range h.net.BuildStallReport(int64(tc.at)).WaitFor {
			got = append(got, e.From+" -> "+e.To+": "+e.Why)
		}
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("buffers %d at tick %d: waits\n%q\nwant\n%q", tc.buf, tc.at, got, tc.want)
		}
	}
}
