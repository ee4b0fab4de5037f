package ring

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ringmesh/internal/packet"
	"ringmesh/internal/rng"
	"ringmesh/internal/topo"
)

// Property: under arbitrary random traffic on arbitrary small
// hierarchies, the network (1) delivers every packet exactly once,
// (2) delivers packets of the same source, destination and class in
// injection order, (3) never violates buffer invariants, and (4)
// drains completely.
func TestQuickRandomTrafficConservation(t *testing.T) {
	f := func(seed uint64, shape uint8, nPkts uint8) bool {
		shapes := []topo.RingSpec{
			topo.MustRingSpec(4),
			topo.MustRingSpec(2, 3),
			topo.MustRingSpec(3, 4),
			topo.MustRingSpec(2, 2, 3),
			topo.MustRingSpec(3, 2, 2),
		}
		spec := shapes[int(shape)%len(shapes)]
		lines := []int{16, 32, 64, 128}
		line := lines[int(seed%uint64(len(lines)))]
		h := newQuickHarness(t, Config{Spec: spec, LineBytes: line})
		r := rng.New(seed)
		total := int(nPkts%40) + 1
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
			var typ packet.Type
			switch r.Intn(4) {
			case 0:
				typ = packet.ReadRequest
			case 1:
				typ = packet.ReadResponse
			case 2:
				typ = packet.WriteRequest
			default:
				typ = packet.WriteResponse
			}
			p := &packet.Packet{
				ID: uint64(i + 1), Type: typ, Src: src, Dst: dst,
				Flits: packet.RingSizing.PacketFlits(typ, line),
			}
			if typ.IsResponse() {
				h.pms[src].addResp(p)
			} else {
				h.pms[src].addReq(p)
			}
			k := key{src, dst, typ.IsResponse()}
			order[k] = append(order[k], p.ID)
		}
		// Run until drained (bounded).
		for tick := 0; tick < 20000; tick++ {
			h.engine.Step()
			if h.net.CheckInvariants() != nil {
				return false
			}
			done := 0
			for _, pm := range h.pms {
				done += len(pm.delivered)
			}
			if done == total && h.net.BufferedFlits() == 0 {
				break
			}
		}
		// Exactly-once delivery to the right PM.
		seen := map[uint64]bool{}
		got := 0
		for id, pm := range h.pms {
			for _, p := range pm.delivered {
				if p.Dst != id || seen[p.ID] {
					return false
				}
				seen[p.ID] = true
				got++
			}
		}
		if got != total {
			return false
		}
		// Same (src,dst,class) stays in order.
		pos := map[uint64]int{}
		for _, pm := range h.pms {
			for i, p := range pm.delivered {
				pos[p.ID] = i
			}
		}
		for _, ids := range order {
			for i := 1; i < len(ids); i++ {
				if pos[ids[i]] < pos[ids[i-1]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func newQuickHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	return newHarness(t, cfg)
}

// Property: the bubble invariant (at most S-1 distinct transit
// residents per ring channel) holds at every tick under sustained
// saturating load.
func TestBubbleInvariantUnderSaturation(t *testing.T) {
	spec := topo.MustRingSpec(2, 2, 3)
	h := newHarness(t, Config{Spec: spec, LineBytes: 128})
	r := rng.New(7)
	// Everyone blasts everyone with max-size packets.
	id := uint64(1)
	for s := 0; s < spec.PMs(); s++ {
		for k := 0; k < 20; k++ {
			dst := r.Intn(spec.PMs())
			if dst == s {
				dst = (dst + 1) % spec.PMs()
			}
			p := &packet.Packet{ID: id, Type: packet.ReadResponse, Src: s, Dst: dst,
				Flits: packet.RingSizing.PacketFlits(packet.ReadResponse, 128)}
			id++
			h.pms[s].addResp(p)
		}
	}
	for tick := 0; tick < 8000; tick++ {
		h.engine.Step()
		if err := h.net.CheckInvariants(); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
	}
	done := 0
	for _, pm := range h.pms {
		done += len(pm.delivered)
	}
	if done != 12*20 {
		t.Fatalf("delivered %d of %d under saturation", done, 12*20)
	}
}

// Property: delivery works for every (src, dst) pair of a 3-level
// hierarchy — exhaustive connectivity.
func TestExhaustiveConnectivity(t *testing.T) {
	spec := topo.MustRingSpec(2, 2, 2)
	for src := 0; src < spec.PMs(); src++ {
		for dst := 0; dst < spec.PMs(); dst++ {
			if src == dst {
				continue
			}
			h := newHarness(t, Config{Spec: spec, LineBytes: 32})
			p := &packet.Packet{ID: 1, Type: packet.WriteRequest, Src: src, Dst: dst,
				Flits: packet.RingSizing.PacketFlits(packet.WriteRequest, 32)}
			h.pms[src].addReq(p)
			h.run(t, 120)
			if len(h.pms[dst].delivered) != 1 {
				t.Fatalf("%d -> %d not delivered", src, dst)
			}
		}
	}
}

// The engine watchdog must stay quiet for a drained, idle network.
func TestIdleNetworkNoWatchdog(t *testing.T) {
	h := newHarness(t, Config{Spec: topo.MustRingSpec(2, 3), LineBytes: 32})
	h.engine.WatchdogTicks = 50
	h.engine.InFlight = func() bool { return h.net.BufferedFlits() > 0 }
	if err := h.engine.Run(1000); err != nil {
		t.Fatalf("watchdog tripped on idle network: %v", err)
	}
}
