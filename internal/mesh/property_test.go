package mesh

import (
	"testing"
	"testing/quick"

	"ringmesh/internal/packet"
	"ringmesh/internal/rng"
	"ringmesh/internal/topo"
)

// Property: under arbitrary random traffic on arbitrary small meshes
// and buffer depths, the network delivers every packet exactly once,
// preserves per-(src,dst,class) order, keeps buffer invariants, and
// drains completely (e-cube is deadlock-free).
func TestQuickRandomTrafficConservation(t *testing.T) {
	f := func(seed uint64, kRaw, bufRaw, nPkts uint8) bool {
		k := int(kRaw%3) + 2 // 2..4
		buf := scriptBuffers[int(bufRaw)%len(scriptBuffers)]
		line := scriptLines[int(seed%uint64(len(scriptLines)))]
		spec := topo.MustMeshSpec(k)
		h := newHarness(t, Config{Spec: spec, LineBytes: line, BufferFlits: buf})
		total := int(nPkts%30) + 1
		type key struct {
			src, dst int
			resp     bool
		}
		order := map[key][]uint64{}
		for _, p := range randomPackets(rng.New(seed), spec.PMs(), line, total) {
			enqueue(h.pms[p.Src], p)
			kk := key{p.Src, p.Dst, p.Type.IsResponse()}
			order[kk] = append(order[kk], p.ID)
		}
		for tick := 0; tick < 40000; tick++ {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The random scripts' buffer depths (0 is cl) and line sizes.
var (
	scriptBuffers = []int{1, 2, 4, 0}
	scriptLines   = []int{16, 32, 64, 128}
)

// randomPackets draws a script of n packets, IDs 1..n, with uniform
// random endpoints and types.
func randomPackets(r *rng.Source, pms, line, n int) []*packet.Packet {
	types := []packet.Type{packet.ReadRequest, packet.ReadResponse, packet.WriteRequest, packet.WriteResponse}
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		src := r.Intn(pms)
		dst := r.Intn(pms)
		typ := types[r.Intn(len(types))]
		pkts[i] = &packet.Packet{
			ID: uint64(i + 1), Type: typ, Src: src, Dst: dst,
			Flits: packet.MeshSizing.PacketFlits(typ, line),
		}
	}
	return pkts
}

// enqueue queues p at its PM, responses and requests apart.
func enqueue(pm *fakePM, p *packet.Packet) {
	if p.Type.IsResponse() {
		pm.addResp(p)
	} else {
		pm.addReq(p)
	}
}

// Exhaustive connectivity on a 4x4 mesh with 1-flit buffers (the
// harshest configuration).
func TestExhaustiveConnectivityOneFlit(t *testing.T) {
	spec := topo.MustMeshSpec(4)
	for src := 0; src < spec.PMs(); src++ {
		h := newHarness(t, Config{Spec: spec, LineBytes: 32, BufferFlits: 1})
		for dst := 0; dst < spec.PMs(); dst++ {
			if dst == src {
				continue
			}
			p := &packet.Packet{ID: uint64(dst + 1), Type: packet.ReadRequest,
				Src: src, Dst: dst,
				Flits: packet.MeshSizing.PacketFlits(packet.ReadRequest, 32)}
			h.pms[src].addReq(p)
		}
		h.run(t, 3000)
		for dst := 0; dst < spec.PMs(); dst++ {
			if dst == src {
				continue
			}
			if len(h.pms[dst].delivered) != 1 {
				t.Fatalf("%d -> %d: delivered %d", src, dst, len(h.pms[dst].delivered))
			}
		}
	}
}

// TestLargeMeshRandomTrafficInvariants runs a 9x9 mesh — 81 routers,
// so the pending bitset spans two words — under random traffic for a
// few thousand ticks, checking every invariant each tick, then drains
// it and checks that every packet arrived once, where it was sent.
func TestLargeMeshRandomTrafficInvariants(t *testing.T) {
	const released = 3000 // one packet a tick
	spec := topo.MustMeshSpec(9)
	h := newHarness(t, Config{Spec: spec, LineBytes: 32, BufferFlits: 2})
	pkts := randomPackets(rng.New(54), spec.PMs(), 32, released)
	upper := 0
	for _, p := range pkts {
		if p.Src >= 64 {
			upper++
		}
	}
	if upper == 0 {
		t.Fatal("no packet starts at a router of the bitset's second word")
	}
	delivered := func() (n int) {
		for _, pm := range h.pms {
			n += len(pm.delivered)
		}
		return n
	}
	for tick := 0; tick < released || delivered() < released; tick++ {
		if tick >= released+20000 {
			t.Fatalf("%d of %d packets delivered 20000 ticks after the last release", delivered(), released)
		}
		if tick < released {
			enqueue(h.pms[pkts[tick].Src], pkts[tick])
		}
		h.run(t, 1)
	}
	seen := map[uint64]bool{}
	for id, pm := range h.pms {
		for _, p := range pm.delivered {
			if p.Dst != id || seen[p.ID] {
				t.Fatalf("packet %s delivered at router %d (seen before: %v)", p, id, seen[p.ID])
			}
			seen[p.ID] = true
		}
	}
	if h.net.BufferedFlits() != 0 {
		t.Fatalf("%d flits still buffered after every packet arrived", h.net.BufferedFlits())
	}
}
