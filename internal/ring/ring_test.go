package ring

import (
	"slices"
	"testing"
	"unsafe"

	"ringmesh/internal/node"
	"ringmesh/internal/packet"
	"ringmesh/internal/rng"
	"ringmesh/internal/sim"
	"ringmesh/internal/topo"
)

// fakePM is a scriptable PM for driving the network directly.
type fakePM struct {
	id        int
	pendReq   []*packet.Packet
	pendResp  []*packet.Packet
	delivered []*packet.Packet
	deliverAt []int64
	lateAt    []bool
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
func (f *fakePM) HasPending() bool { return len(f.pendResp)+len(f.pendReq) > 0 }
func (f *fakePM) Deliver(p *packet.Packet, now int64, late bool) {
	f.delivered = append(f.delivered, p)
	f.deliverAt = append(f.deliverAt, now)
	f.lateAt = append(f.lateAt, late)
}

// harness builds a network over fake PMs.
type harness struct {
	engine *sim.Engine
	net    *Network
	pms    []*fakePM
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	engine := &sim.Engine{}
	pms := make([]*fakePM, cfg.Spec.PMs())
	ports := make([]node.Port, len(pms))
	for i := range pms {
		pms[i] = &fakePM{id: i}
		ports[i] = pms[i]
	}
	net, err := New(cfg, ports, engine)
	if err != nil {
		t.Fatal(err)
	}
	engine.Register(net, 1)
	return &harness{engine: engine, net: net, pms: pms}
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
		Flits: packet.RingSizing.PacketFlits(typ, lineBytes),
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Spec: topo.MustRingSpec(2, 4), LineBytes: 32}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Spec: topo.RingSpec{}, LineBytes: 32},
		{Spec: topo.MustRingSpec(4), LineBytes: 0},
		{Spec: topo.MustRingSpec(4), LineBytes: 48},    // not a paper sizing
		{Spec: topo.MustRingSpec(1, 4), LineBytes: 32}, // 1-child global
		{Spec: topo.MustRingSpec(4), LineBytes: 32, IRIQueueFlits: -1},
		// Queue smaller than one cache-line worm: would wedge forever.
		{Spec: topo.MustRingSpec(2, 4), LineBytes: 32, IRIQueueFlits: 1},
		// Queue storage is allocated up front: the depth is bounded.
		{Spec: topo.MustRingSpec(2, 4), LineBytes: 32, IRIQueueFlits: MaxIRIQueueFlits + 1},
		{Spec: topo.MustRingSpec(4), LineBytes: 32, Switching: Switching(9)},
		// Slotted rings have no VCs to disable.
		{Spec: topo.MustRingSpec(4), LineBytes: 32, Switching: Slotted, UnsafeNoVC: true},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestNewRejectsWrongPMCount(t *testing.T) {
	engine := &sim.Engine{}
	_, err := New(Config{Spec: topo.MustRingSpec(4), LineBytes: 32},
		make([]node.Port, 3), engine)
	if err == nil {
		t.Fatal("wrong PM count accepted")
	}
}

func TestStationCount(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustRingSpec(2, 3, 4), LineBytes: 32})
	// 24 NICs + 8 IRIs x 2 stations.
	if got := h.net.NumStations(); got != 24+16 {
		t.Fatalf("stations = %d, want 40", got)
	}
}

// A single-flit request on a 2-node ring: injected at t, the NIC
// output sends it at t+1 and it is delivered the same tick (tail
// flit).
func TestSingleRingDeliveryTiming(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustRingSpec(2), LineBytes: 64})
	p := mkPkt(1, packet.ReadRequest, 0, 1, 64)
	h.pms[0].addReq(p)
	h.run(t, 5)
	if len(h.pms[1].delivered) != 1 {
		t.Fatalf("delivered %d packets", len(h.pms[1].delivered))
	}
	// Tick 0 commit: refill pulls the packet into the NIC out queue.
	// Tick 1 compute/commit: flit crosses to NIC 1 and is delivered.
	if h.pms[1].deliverAt[0] != 1 {
		t.Fatalf("delivered at tick %d, want 1", h.pms[1].deliverAt[0])
	}
}

// A multi-flit packet takes flits-1 extra cycles (pipelined).
func TestMultiFlitSerialization(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustRingSpec(2), LineBytes: 64})
	p := mkPkt(1, packet.ReadResponse, 0, 1, 64) // 5 flits
	h.pms[0].addResp(p)
	h.run(t, 10)
	if len(h.pms[1].delivered) != 1 {
		t.Fatalf("delivered %d packets", len(h.pms[1].delivered))
	}
	if h.pms[1].deliverAt[0] != 5 {
		t.Fatalf("tail delivered at tick %d, want 5", h.pms[1].deliverAt[0])
	}
}

// Delivery time across an idle hierarchy equals injection (1) +
// RingHops + flits - 1, matching topo's distance model.
func TestZeroLoadLatencyMatchesRingHops(t *testing.T) {
	spec := topo.MustRingSpec(2, 3, 4)
	h := newHarness(t, Config{Spec: spec, LineBytes: 32})
	cases := []struct{ src, dst int }{
		{0, 1}, {1, 0}, {0, 5}, {5, 19}, {23, 0}, {8, 16},
	}
	id := uint64(1)
	for _, c := range cases {
		h2 := newHarness(t, Config{Spec: spec, LineBytes: 32})
		p := mkPkt(id, packet.ReadRequest, c.src, c.dst, 32)
		id++
		h2.pms[c.src].addReq(p)
		h2.run(t, 100)
		if len(h2.pms[c.dst].delivered) != 1 {
			t.Fatalf("%d->%d: not delivered", c.src, c.dst)
		}
		want := int64(spec.RingHops(c.src, c.dst)) // 1-flit packet: tail = head
		if got := h2.pms[c.dst].deliverAt[0]; got != want {
			t.Fatalf("%d->%d delivered at %d, want %d (hops)", c.src, c.dst, got, want)
		}
		_ = h
	}
}

// Responses are injected before requests when both are pending.
func TestResponsePriorityAtInjection(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustRingSpec(3), LineBytes: 32})
	req := mkPkt(1, packet.ReadRequest, 0, 1, 32)
	resp := mkPkt(2, packet.ReadResponse, 0, 1, 32) // 3 flits
	h.pms[0].addReq(req)
	h.pms[0].addResp(resp)
	h.run(t, 20)
	if len(h.pms[1].delivered) != 2 {
		t.Fatalf("delivered %d packets", len(h.pms[1].delivered))
	}
	if h.pms[1].delivered[0].ID != 2 {
		t.Fatalf("first delivery was %v, want the response", h.pms[1].delivered[0])
	}
}

// Transit traffic has priority over local injection: when a station
// holds both a transit packet and an injectable packet of the same
// channel, the transit packet is selected.
func TestTransitPriority(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustRingSpec(8), LineBytes: 32})
	n, st := h.net, &h.net.stations[0]

	transit := &packet.Packet{ID: 1, Type: packet.ReadResponse, Src: 6, Dst: 3, Flits: 3}
	local := &packet.Packet{ID: 2, Type: packet.ReadResponse, Dst: 3, Flits: 3}
	n.push(st, vcDescent, flit{pkt: transit, dec: decode(transit, 0)})
	n.inject(st, qResp, local)
	q, d := st.candidate(vcDescent)
	if q != vcDescent || d != decPresent|decHead|decResp {
		t.Fatalf("candidate = queue %d decoded %#x, want the transit packet", q, d)
	}
	// Response injection beats request injection once transit drains.
	n.pop(st, vcDescent)
	req := &packet.Packet{ID: 3, Type: packet.ReadRequest, Dst: 3, Flits: 1}
	n.inject(st, qReq, req)
	if q, d = st.candidate(vcDescent); q != qResp || d == 0 {
		t.Fatalf("candidate = queue %d, want the response packet", q)
	}
}

// Packets never interleave flits of two packets on one link within a
// virtual channel: delivery order per destination is per-packet
// contiguous by construction; here we verify ordering of two streams
// from different sources to one destination completes intact (the
// FIFO panics inside the network would fire otherwise).
func TestNoInterleaveUnderContention(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustRingSpec(6), LineBytes: 128})
	for i := 0; i < 8; i++ {
		h.pms[0].addResp(mkPkt(uint64(100+i), packet.ReadResponse, 0, 3, 128))
		h.pms[1].addResp(mkPkt(uint64(200+i), packet.ReadResponse, 1, 3, 128))
		h.pms[2].addResp(mkPkt(uint64(300+i), packet.ReadResponse, 2, 3, 128))
	}
	h.run(t, 600)
	if len(h.pms[3].delivered) != 24 {
		t.Fatalf("delivered %d packets, want 24", len(h.pms[3].delivered))
	}
}

// Cross-ring transfer exercises the IRI path end to end.
func TestHierarchyCrossRing(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustRingSpec(2, 2, 3), LineBytes: 64})
	// PM 0 (first leaf) to PM 11 (last leaf): full ascent + descent.
	p := mkPkt(1, packet.WriteRequest, 0, 11, 64)
	h.pms[0].addReq(p)
	h.run(t, 200)
	if len(h.pms[11].delivered) != 1 {
		t.Fatal("cross-hierarchy packet not delivered")
	}
	if h.pms[11].delivered[0].ID != 1 {
		t.Fatal("wrong packet delivered")
	}
}

// All-to-all storm across a 3-level hierarchy completes without
// deadlock and without invariant violations (the regression test for
// the virtual-channel deadlock fix).
func TestStormNoDeadlock(t *testing.T) {
	spec := topo.MustRingSpec(3, 3, 4)
	h := newHarness(t, Config{Spec: spec, LineBytes: 32})
	id := uint64(1)
	total := 0
	for s := 0; s < spec.PMs(); s++ {
		for k := 0; k < 6; k++ {
			d := (s + 7 + 5*k) % spec.PMs()
			if d == s {
				continue
			}
			typ := packet.ReadResponse
			if k%2 == 0 {
				typ = packet.WriteRequest
			}
			h.pms[s].addReq(mkPkt(id, typ, s, d, 32))
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
		t.Fatalf("delivered %d of %d packets (deadlock or loss)", got, total)
	}
	if h.net.BufferedFlits() != 0 {
		t.Fatalf("%d flits still buffered after drain", h.net.BufferedFlits())
	}
}

// Double-speed global ring: stations on the global ring act twice per
// PM cycle, others once; traffic still flows end to end.
func TestDoubleSpeedGlobalDelivery(t *testing.T) {
	spec := topo.MustRingSpec(3, 2, 2)
	h := newHarness(t, Config{Spec: spec, LineBytes: 32, DoubleSpeedGlobal: true})
	p := mkPkt(1, packet.ReadRequest, 0, 11, 32)
	h.pms[0].addReq(p)
	h.run(t, 200)
	if len(h.pms[11].delivered) != 1 {
		t.Fatal("packet not delivered under double-speed clocking")
	}
}

// Double-speed must strictly help a global-ring-crossing stream.
func TestDoubleSpeedIsFaster(t *testing.T) {
	spec := topo.MustRingSpec(3, 2, 2)
	load := func(dbl bool) int64 {
		cfg := Config{Spec: spec, LineBytes: 128, DoubleSpeedGlobal: dbl}
		h := newHarness(t, cfg)
		id := uint64(1)
		for s := 0; s < 4; s++ { // first ring PMs blast the far ring
			for k := 0; k < 4; k++ {
				h.pms[s].addResp(mkPkt(id, packet.ReadResponse, s, 8+s, 128))
				id++
			}
		}
		cycles := int64(0)
		for ; cycles < 5000; cycles++ {
			h.engine.Step()
			done := 0
			for _, pm := range h.pms {
				done += len(pm.delivered)
			}
			if done == 16 {
				break
			}
		}
		return cycles
	}
	normal := load(false)
	double := load(true)
	if double >= normal {
		t.Fatalf("double-speed global not faster: %d vs %d PM cycles", double, normal)
	}
}

// Utilization accounting: one packet crossing the ring produces busy
// link-cycles on exactly the links it traversed.
func TestUtilizationCounts(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustRingSpec(4), LineBytes: 32})
	h.pms[0].addReq(mkPkt(1, packet.ReadRequest, 0, 2, 32))
	h.run(t, 10)
	groups := h.net.Links()
	if len(groups) != 1 || groups[0].Label != "L0" || len(groups[0].Busy) != 4 {
		t.Fatalf("link groups = %+v, want L0 with 4 links", groups)
	}
	// 2 link-crossings over 10 ticks x 4 stations = 2/40.
	want := 2.0 / 40.0
	if got := sim.Utilization(groups[0].Since(sim.LinkMark{})); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("utilization = %v, want %v", got, want)
	}
}

// IRI queue capacity override is honoured.
func TestIRIQueueOverride(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustRingSpec(2, 2), LineBytes: 32, IRIQueueFlits: 12})
	for _, upper := range h.net.iris {
		_, up := upper.window(qResp)
		_, down := upper.peer.window(qReq)
		if up != 12 || down != 12 {
			t.Fatalf("IRI queue caps = %d/%d, want 12", up, down)
		}
	}
}

// The virtual-channel classifier: packets to destinations inside a
// ring's range ride the descent channel, others the ascent channel.
func TestVCClassing(t *testing.T) {
	r := &ringInst{lo: 4, hi: 8}
	if r.class(5) != vcDescent {
		t.Fatal("in-range dst should be descent")
	}
	if r.class(3) != vcAscent || r.class(8) != vcAscent {
		t.Fatal("out-of-range dst should be ascent")
	}
}

// The residency counters behind the bubble rule equal a recount of the
// packets actually on each ring's transit paths after every tick of a
// saturated hierarchy — CheckInvariants (run by harness.run each tick)
// requires the equality — with the virtual channels on and off. The
// counters must also be doing something: residents must appear, and a
// drained network must count none.
func TestResidencyCountersMatchRecount(t *testing.T) {
	spec := topo.MustRingSpec(2, 3, 4)
	for _, noVC := range []bool{false, true} {
		h := newHarness(t, Config{Spec: spec, LineBytes: 128, UnsafeNoVC: noVC})
		r := rng.New(11)
		id := uint64(1)
		for s := 0; s < spec.PMs(); s++ {
			for k := 0; k < 12; k++ {
				dst := r.Intn(spec.PMs())
				if dst == s {
					dst = (dst + 1) % spec.PMs()
				}
				typ := packet.ReadResponse
				if k%3 == 0 {
					typ = packet.ReadRequest // 1-flit packets: head is tail
				}
				p := mkPkt(id, typ, s, dst, 128)
				id++
				if typ.IsResponse() {
					h.pms[s].addResp(p)
				} else {
					h.pms[s].addReq(p)
				}
			}
		}
		peak := 0
		for tick := 0; tick < 6000; tick++ {
			h.engine.Step()
			if err := h.net.CheckInvariants(); err != nil {
				t.Fatalf("noVC=%v tick %d: %v", noVC, tick, err)
			}
			for _, ring := range h.net.rings {
				for v := 0; v < numVCs; v++ {
					if ring.resident[v] > peak {
						peak = ring.resident[v]
					}
				}
			}
		}
		if peak < 2 {
			t.Fatalf("noVC=%v: peak residency %d; the storm never loaded a transit path", noVC, peak)
		}
		if h.net.BufferedFlits() == 0 {
			for i, ring := range h.net.rings {
				if ring.resident != [numVCs]int{} {
					t.Fatalf("noVC=%v: drained ring %d still counts residents %v", noVC, i, ring.resident)
				}
			}
		} else if !noVC {
			t.Fatalf("%d flits still buffered with the VCs on", h.net.BufferedFlits())
		}
	}
}

// Static route walk against the topology oracle: following the exit
// rule from every source NIC to every destination takes exactly
// topo.RingSpec.RingHops link crossings, climbs only while the
// destination lies outside the ring's subtree and descends only into
// the subtree that holds it (the ring analogue of the mesh's
// TestGeometryMatchesSpec).
func TestRouteWalkMatchesSpec(t *testing.T) {
	for _, levels := range [][]int{{8}, {3, 8}, {3, 3, 8}, {2, 2, 2, 4}, {2, 3, 4}} {
		spec := topo.MustRingSpec(levels...)
		h := newHarness(t, Config{Spec: spec, LineBytes: 32})
		for src := 0; src < spec.PMs(); src++ {
			for dst := 0; dst < spec.PMs(); dst++ {
				if src == dst {
					continue
				}
				at, hops := h.net.nics[src].st, 0
				for delivered := false; !delivered; {
					if hops > 4*h.net.NumStations() {
						t.Fatalf("%s: %d->%d does not terminate", spec, src, dst)
					}
					next := at.downstream
					hops++ // the link at -> next
					switch {
					case !next.exits(dst):
						at = next
					case next.deliver != nil:
						if next != h.net.nics[dst].st {
							t.Fatalf("%s: %d->%d delivered at %s", spec, src, dst, next.name)
						}
						delivered = true
					default:
						// An IRI crossing: the packet continues from the
						// peer station on the other ring.
						in := dst >= next.ring.lo && dst < next.ring.hi
						up := next.peer.level < next.level
						if up == in {
							t.Fatalf("%s: %d->%d crosses %s the wrong way (dst inside ring subtree: %v)",
								spec, src, dst, next.name, in)
						}
						if !up && (dst < next.peer.ring.lo || dst >= next.peer.ring.hi) {
							t.Fatalf("%s: %d->%d descends at %s into a subtree without it",
								spec, src, dst, next.name)
						}
						at = next.peer
					}
				}
				if want := spec.RingHops(src, dst); hops != want {
					t.Fatalf("%s: %d->%d walks %d hops, RingHops says %d", spec, src, dst, hops, want)
				}
			}
		}
	}
}

// The busy set never skips work: CheckInvariants, which every harness
// runs between ticks, fails when a station holding a flit is missing
// from the busy set or a staged transfer outlives its tick.
func TestCheckInvariantsCatchesSkippedWork(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustRingSpec(2, 4), LineBytes: 32})
	h.pms[0].addResp(mkPkt(1, packet.ReadResponse, 0, 7, 32))
	h.run(t, 3)
	i := slices.IndexFunc(h.net.stations, func(st station) bool { return !st.idle() })
	if i < 0 {
		t.Fatal("no station holds a flit")
	}
	st, word := &h.net.stations[i], &h.net.busy[i/64]
	*word &^= st.busyBit
	if err := h.net.CheckInvariants(); err == nil {
		t.Errorf("%s holds flits outside the busy set, but CheckInvariants passed", st.name)
	}
	*word |= st.busyBit
	st.staged = true
	if err := h.net.CheckInvariants(); err == nil {
		t.Errorf("%s kept a staged flit, but CheckInvariants passed", st.name)
	}
	st.staged = false
	h.net.staged[i/64] |= st.busyBit
	if err := h.net.CheckInvariants(); err == nil {
		t.Errorf("%s kept its staged bit, but CheckInvariants passed", st.name)
	}
	h.net.staged[i/64] = 0
	h.run(t, 100)
	if len(h.pms[7].delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(h.pms[7].delivered))
	}
}

// CheckInvariants also fails on a stale decode: a front byte that is
// not its front slot's, a slot past a queue's count that is not empty,
// and a buffered head whose route bits differ from a fresh decode at
// the station holding it.
func TestCheckInvariantsCatchesStaleDecode(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustRingSpec(2, 4), LineBytes: 32})
	p := mkPkt(1, packet.ReadResponse, 0, 7, 32)
	h.pms[0].addResp(p)
	h.run(t, 1) // the refill has put p into NIC 0's response register
	n, st := h.net, h.net.nics[0].st
	if st.qn[qResp] != uint16(p.Flits) || st.qn[qReq] != 0 {
		t.Fatalf("NIC 0 holds %v flits, want %d responses", st.qn, p.Flits)
	}
	front, off := st.slot(qResp, 0), st.slot(qReq, 0)
	for _, c := range []struct {
		name string
		flip func()
	}{
		{"stale front byte", func() { st.front[qResp] ^= decExit }},
		{"slot past the count", func() { n.slab[off].pkt, n.slab[off].dec = p, n.slab[off].dec^decPresent }},
		{"stale route bits", func() { n.slab[front].dec ^= decAscent; st.front[qResp] ^= decAscent }},
		{"body decoded as a head", func() { n.slab[st.slot(qResp, 1)].dec ^= decHead }},
	} {
		c.flip()
		if err := n.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants passed", c.name)
		}
		c.flip()
		n.slab[off].pkt = nil
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("%s: restored state fails: %v", c.name, err)
		}
	}
	h.run(t, 100)
	if len(h.pms[7].delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(h.pms[7].delivered))
	}
}

// The station's state must stay small, and what compute reads on every
// visit must share its first cache line: a tick visits every busy
// station. Growing it past the bound is a decision to make in the open,
// with a ledger row that shows it pays.
func TestStationFootprint(t *testing.T) {
	const bound = 216
	if got := unsafe.Sizeof(station{}); got > bound {
		t.Fatalf("station is %d bytes, bound %d", got, bound)
	}
	var s station
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"front", unsafe.Offsetof(s.front), unsafe.Sizeof(s.front)},
		{"qn", unsafe.Offsetof(s.qn), unsafe.Sizeof(s.qn)},
		{"staged", unsafe.Offsetof(s.staged), unsafe.Sizeof(s.staged)},
		{"stagedRoute", unsafe.Offsetof(s.stagedRoute), unsafe.Sizeof(s.stagedRoute)},
		{"stagedVC", unsafe.Offsetof(s.stagedVC), unsafe.Sizeof(s.stagedVC)},
		{"stagedQ", unsafe.Offsetof(s.stagedQ), unsafe.Sizeof(s.stagedQ)},
		{"stagedFront", unsafe.Offsetof(s.stagedFront), unsafe.Sizeof(s.stagedFront)},
		{"lastVC", unsafe.Offsetof(s.lastVC), unsafe.Sizeof(s.lastVC)},
		{"locked", unsafe.Offsetof(s.locked), unsafe.Sizeof(s.locked)},
		{"txQ", unsafe.Offsetof(s.txQ), unsafe.Sizeof(s.txQ)},
		{"inRoute", unsafe.Offsetof(s.inRoute), unsafe.Sizeof(s.inRoute)},
		{"downstream", unsafe.Offsetof(s.downstream), unsafe.Sizeof(s.downstream)},
		{"ring", unsafe.Offsetof(s.ring), unsafe.Sizeof(s.ring)},
		{"peer", unsafe.Offsetof(s.peer), unsafe.Sizeof(s.peer)},
	} {
		if f.off+f.size > 64 {
			t.Errorf("station.%s ends at byte %d, past the first cache line", f.name, f.off+f.size)
		}
	}
}
