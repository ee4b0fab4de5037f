package ring

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ringmesh/internal/node"
	"ringmesh/internal/packet"
	"ringmesh/internal/rng"
	"ringmesh/internal/sim"
	"ringmesh/internal/topo"
)

// slottedHarness builds a slotted network over fake PMs.
type slottedHarness struct {
	engine *sim.Engine
	net    *SlottedNetwork
	pms    []*fakePM
}

func newSlottedHarness(t *testing.T, cfg Config) *slottedHarness {
	t.Helper()
	engine := &sim.Engine{}
	pms := make([]*fakePM, cfg.Spec.PMs())
	ports := make([]node.Port, len(pms))
	for i := range pms {
		pms[i] = &fakePM{id: i}
		ports[i] = pms[i]
	}
	net, err := NewSlotted(cfg, ports, engine)
	if err != nil {
		t.Fatal(err)
	}
	engine.Register(net, 1)
	return &slottedHarness{engine: engine, net: net, pms: pms}
}

func (h *slottedHarness) run(t *testing.T, ticks int) {
	t.Helper()
	for i := 0; i < ticks; i++ {
		h.engine.Step()
		if err := h.net.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSwitchingString(t *testing.T) {
	if Wormhole.String() != "wormhole" || Slotted.String() != "slotted" {
		t.Fatal("switching names wrong")
	}
	if Switching(7).String() == "" {
		t.Fatal("unknown switching should render")
	}
}

// A slot advances one position every cl ring cycles: a packet
// injected on a 4-node single ring reaches its neighbour after one
// slot period.
func TestSlottedHopTiming(t *testing.T) {
	const line = 32 // cl = 3 flits
	h := newSlottedHarness(t, Config{Spec: topo.MustRingSpec(4), LineBytes: line, Switching: Slotted})
	p := mkPkt(1, packet.ReadRequest, 0, 1, line)
	h.pms[0].addReq(p)
	h.run(t, 60)
	if len(h.pms[1].delivered) != 1 {
		t.Fatal("packet not delivered")
	}
	// Refill at tick 0 (ready at 1); first slot boundary at tick 3
	// injects; the next boundary (tick 6) advances it to the
	// neighbour, which delivers on the spot.
	if got := h.pms[1].deliverAt[0]; got != 6 {
		t.Fatalf("delivered at tick %d, want 6", got)
	}
}

// Distance across a single slotted ring is hops x cl cycles.
func TestSlottedDistanceScaling(t *testing.T) {
	const line = 64 // cl = 5
	times := map[int]int64{}
	for _, dst := range []int{1, 2, 3} {
		h := newSlottedHarness(t, Config{Spec: topo.MustRingSpec(4), LineBytes: line, Switching: Slotted})
		h.pms[0].addReq(mkPkt(1, packet.ReadRequest, 0, dst, line))
		h.run(t, 200)
		if len(h.pms[dst].delivered) != 1 {
			t.Fatalf("0->%d not delivered", dst)
		}
		times[dst] = h.pms[dst].deliverAt[0]
	}
	if times[2]-times[1] != 5 || times[3]-times[2] != 5 {
		t.Fatalf("per-hop cost should be cl=5 cycles: %v", times)
	}
}

// Cross-hierarchy delivery works and store-and-forward at the IRI
// adds whole-packet latency.
func TestSlottedHierarchyDelivery(t *testing.T) {
	h := newSlottedHarness(t, Config{Spec: topo.MustRingSpec(2, 2, 3), LineBytes: 32, Switching: Slotted})
	h.pms[0].addReq(mkPkt(1, packet.WriteRequest, 0, 11, 32))
	h.run(t, 1000)
	if len(h.pms[11].delivered) != 1 {
		t.Fatal("cross-hierarchy packet not delivered")
	}
}

// The regression that motivated the ascent admission rule: a full
// saturating storm across a 3-level hierarchy must drain completely.
func TestSlottedStormDrains(t *testing.T) {
	spec := topo.MustRingSpec(3, 3, 4)
	h := newSlottedHarness(t, Config{Spec: spec, LineBytes: 32, Switching: Slotted})
	r := rng.New(11)
	total := 0
	id := uint64(1)
	for s := 0; s < spec.PMs(); s++ {
		for k := 0; k < 6; k++ {
			d := r.Intn(spec.PMs())
			if d == s {
				continue
			}
			typ := packet.ReadResponse
			if k%2 == 0 {
				typ = packet.WriteRequest
			}
			p := mkPkt(id, typ, s, d, 32)
			id++
			total++
			if typ.IsResponse() {
				h.pms[s].addResp(p)
			} else {
				h.pms[s].addReq(p)
			}
		}
	}
	h.run(t, 30000)
	done := 0
	for _, pm := range h.pms {
		done += len(pm.delivered)
	}
	if done != total {
		t.Fatalf("delivered %d of %d (slotted hierarchy wedged)", done, total)
	}
	if h.net.BufferedFlits() != 0 {
		t.Fatalf("%d flits left buffered", h.net.BufferedFlits())
	}
}

// slottedConservation drives random traffic over one of a few small
// slotted hierarchies until it drains. ok reports the properties the
// model promises: the invariants hold at every tick and every packet
// is delivered exactly once, to its destination. reordered reports
// whether two packets of one (src, dst, class) arrived out of
// injection order, which the model does not promise to avoid.
func slottedConservation(seed uint64, shape, nPkts uint8) (ok, reordered bool) {
	shapes := []topo.RingSpec{
		topo.MustRingSpec(4),
		topo.MustRingSpec(2, 3),
		topo.MustRingSpec(2, 2, 3),
	}
	spec := shapes[int(shape)%len(shapes)]
	lines := []int{16, 32, 128}
	line := lines[int(seed%uint64(len(lines)))]
	engine := &sim.Engine{}
	pms := make([]*fakePM, spec.PMs())
	ports := make([]node.Port, len(pms))
	for i := range pms {
		pms[i] = &fakePM{id: i}
		ports[i] = pms[i]
	}
	net, err := NewSlotted(Config{Spec: spec, LineBytes: line, Switching: Slotted}, ports, engine)
	if err != nil {
		return false, false
	}
	engine.Register(net, 1)
	r := rng.New(seed)
	total := int(nPkts%30) + 1
	type key struct {
		src, dst int
		resp     bool
	}
	order := map[key][]uint64{}
	for i := 0; i < total; i++ {
		src := r.Intn(spec.PMs())
		dst := r.Intn(spec.PMs())
		if dst == src {
			dst = (dst + 1) % spec.PMs()
		}
		typ := packet.ReadRequest
		if r.Bernoulli(0.5) {
			typ = packet.ReadResponse
		}
		p := mkPkt(uint64(i+1), typ, src, dst, line)
		if typ.IsResponse() {
			pms[src].addResp(p)
		} else {
			pms[src].addReq(p)
		}
		k := key{src, dst, typ.IsResponse()}
		order[k] = append(order[k], p.ID)
	}
	for tick := 0; tick < 60000; tick++ {
		engine.Step()
		if net.CheckInvariants() != nil {
			return false, false
		}
		done := 0
		for _, pm := range pms {
			done += len(pm.delivered)
		}
		if done == total && net.BufferedFlits() == 0 {
			break
		}
	}
	seen := map[uint64]bool{}
	got := 0
	pos := map[uint64]int{}
	for id, pm := range pms {
		for i, p := range pm.delivered {
			if p.Dst != id || seen[p.ID] {
				return false, false
			}
			seen[p.ID] = true
			pos[p.ID] = i
			got++
		}
	}
	for _, ids := range order {
		for i := 1; i < len(ids); i++ {
			if pos[ids[i]] < pos[ids[i-1]] {
				reordered = true
			}
		}
	}
	return got == total, reordered
}

// Property: random traffic over random small slotted hierarchies is
// delivered exactly once, to the right PM, with the invariants holding
// at every tick. Delivery order within one (src, dst, class) is not
// part of the property, unlike the wormhole network's
// (TestQuickRandomTrafficConservation): a packet NACKed at a full IRI
// queue goes round its ring again while its successor exits (see the
// header of slotted.go and processOccupied), as in Hector, and the PM
// matches responses by transaction, not by arrival order.
func TestQuickSlottedConservation(t *testing.T) {
	// Pinned: on slotted 2:2:3, two read-responses 4->2 arrive in the
	// opposite order, and every packet is still delivered once.
	if ok, reordered := slottedConservation(0x772d4d8d1a4f0299, 0x50, 0xe6); !ok || !reordered {
		t.Fatalf("pinned NACK-reorder case: ok=%v reordered=%v; want every packet delivered once, with a reorder", ok, reordered)
	}
	f := func(seed uint64, shape, nPkts uint8) bool {
		ok, _ := slottedConservation(seed, shape, nPkts)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Double-speed global ring under slotted switching still delivers and
// speeds up global crossings.
func TestSlottedDoubleSpeed(t *testing.T) {
	run := func(dbl bool) int64 {
		h := newSlottedHarness(t, Config{
			Spec: topo.MustRingSpec(3, 2, 2), LineBytes: 64,
			Switching: Slotted, DoubleSpeedGlobal: dbl,
		})
		h.pms[0].addReq(mkPkt(1, packet.ReadRequest, 0, 11, 64))
		for cycle := int64(1); cycle <= 2500; cycle++ {
			h.engine.Step()
			if len(h.pms[11].delivered) == 1 {
				return cycle
			}
		}
		t.Fatal("not delivered")
		return 0
	}
	normal := run(false)
	double := run(true)
	if double > normal {
		t.Fatalf("double-speed slotted slower: %d vs %d PM cycles", double, normal)
	}
}

// The ascent admission rule: with a full complement of ascending
// traffic the leaf ring keeps at least two slots clear of ascent
// packets (checked indirectly: invariants hold and the storm drains;
// here check mayAdmit directly).
func TestSlottedMayAdmit(t *testing.T) {
	r := &sring{
		slots: make([]sslot, 5),
		lo:    0, hi: 4,
	}
	asc := &packet.Packet{Dst: 9} // outside [0,4): ascending
	desc := &packet.Packet{Dst: 2}
	r.occupied = 2
	if !r.mayAdmit(asc) || !r.mayAdmit(desc) {
		t.Fatal("admission should be open below the ascent bound")
	}
	r.occupied = 3 // S-2
	if r.mayAdmit(asc) {
		t.Fatal("ascending packet admitted at the reserve bound")
	}
	if !r.mayAdmit(desc) {
		t.Fatal("descending packet must always be admitted")
	}
}

func TestSlottedUtilization(t *testing.T) {
	h := newSlottedHarness(t, Config{Spec: topo.MustRingSpec(4), LineBytes: 32, Switching: Slotted})
	h.pms[0].addResp(mkPkt(1, packet.ReadResponse, 0, 2, 32))
	h.run(t, 60)
	groups := h.net.Links()
	if len(groups) != 1 || groups[0].Label != "L0" {
		t.Fatalf("link groups = %+v, want L0 only", groups)
	}
	if u := sim.Utilization(groups[0].Since(sim.LinkMark{})); u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
}
