package mesh

import (
	"testing"

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
}

func (f *fakePM) PendingResponse() (*packet.Packet, bool) {
	if len(f.pendResp) == 0 {
		return nil, false
	}
	return f.pendResp[0], true
}
func (f *fakePM) PopPendingResponse() *packet.Packet {
	p := f.pendResp[0]
	f.pendResp = f.pendResp[1:]
	return p
}
func (f *fakePM) PendingRequest() (*packet.Packet, bool) {
	if len(f.pendReq) == 0 {
		return nil, false
	}
	return f.pendReq[0], true
}
func (f *fakePM) PopPendingRequest() *packet.Packet {
	p := f.pendReq[0]
	f.pendReq = f.pendReq[1:]
	return p
}
func (f *fakePM) Deliver(p *packet.Packet, now int64) {
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
	good := Config{Spec: topo.MustMeshSpec(3), LineBytes: 32, BufferFlits: 4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Spec: topo.MeshSpec{K: 0}, LineBytes: 32},
		{Spec: topo.MustMeshSpec(3), LineBytes: 0},
		{Spec: topo.MustMeshSpec(3), LineBytes: 32, BufferFlits: -1},
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
	h.pms[0].pendReq = append(h.pms[0].pendReq, p)
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
		h.pms[c.src].pendReq = append(h.pms[c.src].pendReq, p)
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
	h.pms[0].pendReq = append(h.pms[0].pendReq, p)
	h.run(t, 20)
	if len(h.pms[0].delivered) != 1 {
		t.Fatal("loopback packet not delivered")
	}
	if h.net.Utilization() != 0 {
		t.Fatal("loopback must not use inter-router links")
	}
}

// Wormhole: a long packet holds its path; a second packet sharing a
// link waits and both arrive intact.
func TestWormholeContention(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustMeshSpec(3), LineBytes: 128, BufferFlits: 4})
	// 0 -> 2 and 3 -> 2 share the link into router 2's column? Use
	// 0->2 (east,east) and 1->2 (east): both use link 1->2.
	h.pms[0].pendResp = append(h.pms[0].pendResp, mkPkt(1, packet.ReadResponse, 0, 2, 128)) // 36 flits
	h.pms[1].pendResp = append(h.pms[1].pendResp, mkPkt(2, packet.ReadResponse, 1, 2, 128))
	h.run(t, 300)
	if len(h.pms[2].delivered) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(h.pms[2].delivered))
	}
}

// 1-flit buffers still deliver correctly (heavier stalling).
func TestOneFlitBuffers(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustMeshSpec(3), LineBytes: 64, BufferFlits: 1})
	for i := 0; i < 4; i++ {
		h.pms[0].pendResp = append(h.pms[0].pendResp, mkPkt(uint64(1+i), packet.ReadResponse, 0, 8, 64))
	}
	h.run(t, 1000)
	if len(h.pms[8].delivered) != 4 {
		t.Fatalf("delivered %d packets, want 4", len(h.pms[8].delivered))
	}
}

// Responses are injected before requests.
func TestResponseInjectionPriority(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustMeshSpec(2), LineBytes: 32, BufferFlits: 4})
	h.pms[0].pendReq = append(h.pms[0].pendReq, mkPkt(1, packet.ReadRequest, 0, 1, 32))
	h.pms[0].pendResp = append(h.pms[0].pendResp, mkPkt(2, packet.ReadResponse, 0, 1, 32))
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
	h.pms[0].pendReq = append(h.pms[0].pendReq, mkPkt(1, packet.ReadRequest, 0, 8, 16))
	h.run(t, 50)
	if len(h.pms[8].delivered) != 1 {
		t.Fatal("not delivered")
	}
	// Routers on the e-cube path 0→1→2→5→8 must have sent flits;
	// others must not.
	onPath := map[int]bool{0: true, 1: true, 2: true, 5: true}
	for id, r := range h.net.routers {
		busy := false
		for o := topo.Direction(0); o < topo.NumPorts; o++ {
			if r.linkUtil[o].Value() > 0 {
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
			h.pms[s].pendReq = append(h.pms[s].pendReq, mkPkt(id, packet.WriteRequest, s, d, 32))
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
		h.pms[3].pendResp = append(h.pms[3].pendResp, mkPkt(uint64(100+i), packet.ReadResponse, 3, 5, 16))
		h.pms[4].pendResp = append(h.pms[4].pendResp, mkPkt(uint64(200+i), packet.ReadResponse, 4, 5, 16))
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
	h.pms[0].pendResp = append(h.pms[0].pendResp, mkPkt(1, packet.ReadResponse, 0, 1, 16)) // 8 flits
	h.run(t, 20)
	if len(h.pms[1].delivered) != 1 {
		t.Fatal("not delivered")
	}
	u := h.net.Utilization()
	// 8 busy cycles over 20 ticks x 8 directed links.
	want := 8.0 / 160.0
	if u < want-1e-9 || u > want+1e-9 {
		t.Fatalf("utilization = %v, want %v", u, want)
	}
	h.net.ResetUtilization()
	if h.net.Utilization() != 0 {
		t.Fatal("reset failed")
	}
}

// The build-time geometry the tick runs on must be topo.MeshSpec's: for
// every router, each neighbour pointer equals Neighbor, and a packet
// head decoded at that router wants exactly the port Route names, for
// every destination.
func TestGeometryMatchesSpec(t *testing.T) {
	for k := 1; k <= 12; k++ {
		spec := topo.MustMeshSpec(k)
		h := newHarness(t, Config{Spec: spec, LineBytes: 32, BufferFlits: 1})
		for id, r := range h.net.routers {
			if x, y := spec.Coord(id); r.id != id || r.x != x || r.y != y {
				t.Fatalf("K=%d router %d: built as id %d at (%d,%d)", k, id, r.id, r.x, r.y)
			}
			for o := topo.Direction(0); o < topo.NumPorts; o++ {
				want := -1
				if o != topo.Local {
					want = spec.Neighbor(id, o)
					if opposite[o] != o.Opposite() {
						t.Fatalf("opposite[%s] = %s", o, opposite[o])
					}
				}
				if got := r.nbr[o]; (got == nil) != (want < 0) || got != nil && got.id != want {
					t.Fatalf("K=%d router %d %s: neighbour %v, want id %d", k, id, o, got, want)
				}
			}
			for dst := 0; dst < spec.PMs(); dst++ {
				in := topo.Direction(dst % int(topo.NumPorts))
				r.inputs[in].Push(packet.Flit{Pkt: mkPkt(1, packet.ReadRequest, 0, dst, 32)})
				var hd heads
				busy := h.net.decode(r, &hd)
				r.inputs[in].Pop()
				want := spec.Route(id, dst)
				if !busy || hd.want[in] != want || hd.wanted != 1<<want {
					t.Fatalf("K=%d router %d → %d via %s input: decoded want %s (mask %b), Route says %s",
						k, id, dst, in, hd.want[in], hd.wanted, want)
				}
			}
		}
	}
}
