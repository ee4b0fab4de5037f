package mesh

// The reference mesh tick: the router as it was written before the
// router slab and the request masks. Every router is a separately
// allocated struct with lazily allocated FIFOs, decode records the
// output each input head wants, and every cycle visits all five
// outputs and arbitrates by scanning want[] round-robin from rr[o].
// TestTickMatchesReference drives it and the production tick from the
// same random injection scripts and requires the same per-packet
// delivery cycles and the same buffered flits on every cycle.

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"ringmesh/internal/packet"
	"ringmesh/internal/rng"
	"ringmesh/internal/topo"
)

type refHeads struct {
	f      [topo.NumPorts]packet.Flit
	want   [topo.NumPorts]topo.Direction
	wanted uint
}

// refMove is a staged crossbar transfer for one output port.
type refMove struct {
	ok bool
	in topo.Direction
	f  packet.Flit
}

type refRouter struct {
	id        int
	x, y      int
	nbr       [topo.NumPorts]*refRouter
	inputs    [topo.NumPorts]packet.FIFO
	outLock   [topo.NumPorts]*packet.Packet
	outLockIn [topo.NumPorts]topo.Direction
	rr        [topo.NumPorts]int
	staged    [topo.NumPorts]refMove
	injPkt    *packet.Packet
	injIdx    int
	stagedInj refMove
	pm        *fakePM // polled directly: the reference binds no pending bit
}

type refNetwork struct {
	routers []*refRouter
	coord   []struct{ x, y int }
}

func newRefNetwork(cfg Config, pms []*fakePM) *refNetwork {
	n := &refNetwork{coord: make([]struct{ x, y int }, cfg.Spec.PMs())}
	for id := range n.coord {
		r := &refRouter{id: id, pm: pms[id]}
		r.x, r.y = cfg.Spec.Coord(id)
		n.coord[id].x, n.coord[id].y = r.x, r.y
		for p := range r.inputs {
			r.inputs[p] = packet.MakeFIFO(cfg.bufferFlits())
			r.outLockIn[p] = noPort
		}
		n.routers = append(n.routers, r)
	}
	for _, r := range n.routers {
		for o := topo.Direction(0); o < topo.Local; o++ {
			if nb := cfg.Spec.Neighbor(r.id, o); nb >= 0 {
				r.nbr[o] = n.routers[nb]
			}
		}
	}
	return n
}

func (n *refNetwork) tick(now int64) {
	for _, r := range n.routers {
		n.compute(r, now)
	}
	for _, r := range n.routers {
		n.commit(r, now)
	}
}

func (n *refNetwork) compute(r *refRouter, now int64) {
	var h refHeads
	for i := range h.f {
		f, _ := r.inputs[i].Peek()
		h.f[i], h.want[i] = f, noPort
		if f.Pkt != nil && f.Head() {
			d := n.coord[f.Pkt.Dst]
			h.want[i] = topo.ECube(r.x, r.y, d.x, d.y)
			h.wanted |= 1 << h.want[i]
		}
	}
	for o := topo.Direction(0); o < topo.NumPorts; o++ {
		in, f, ok := r.pick(&h, o)
		if !ok {
			continue
		}
		if o != topo.Local {
			nb := r.nbr[o]
			if nb == nil {
				panic(fmt.Sprintf("refmesh: router %d routed %s off the edge", r.id, f.Pkt))
			}
			if nb.inputs[o.Opposite()].Space() < 1 {
				continue
			}
		}
		r.staged[o] = refMove{ok: true, in: in, f: f}
	}
	if r.injPkt != nil && r.inputs[topo.Local].Space() >= 1 {
		r.stagedInj = refMove{ok: true, f: packet.Flit{Pkt: r.injPkt, Index: r.injIdx}}
	}
}

func (r *refRouter) pick(h *refHeads, o topo.Direction) (topo.Direction, packet.Flit, bool) {
	if lock := r.outLock[o]; lock != nil {
		i := r.outLockIn[o]
		if h.f[i].Pkt == nil {
			return -1, packet.Flit{}, false
		}
		if h.f[i].Pkt != lock {
			panic(fmt.Sprintf("refmesh: router %d would interleave %s into %s", r.id, h.f[i].Pkt, lock))
		}
		return i, h.f[i], true
	}
	if h.wanted&(1<<o) == 0 {
		return -1, packet.Flit{}, false
	}
	for i := topo.Direction(r.rr[o]); ; i = (i + 1) % topo.NumPorts {
		if h.want[i] == o {
			return i, h.f[i], true
		}
	}
}

func (n *refNetwork) commit(r *refRouter, now int64) {
	for o := topo.Direction(0); o < topo.NumPorts; o++ {
		mv := r.staged[o]
		if !mv.ok {
			continue
		}
		r.staged[o] = refMove{}
		if got := r.inputs[mv.in].Pop(); got != mv.f {
			panic(fmt.Sprintf("refmesh: router %d staged %s but popped %s", r.id, mv.f, got))
		}
		if mv.f.Head() && !mv.f.Tail() {
			r.outLock[o], r.outLockIn[o] = mv.f.Pkt, mv.in
		}
		if mv.f.Tail() {
			r.outLock[o], r.outLockIn[o] = nil, noPort
		}
		if mv.f.Head() {
			r.rr[o] = (int(mv.in) + 1) % int(topo.NumPorts)
		}
		if o == topo.Local {
			if mv.f.Tail() {
				r.pm.Deliver(mv.f.Pkt, now, false)
			}
		} else {
			r.nbr[o].inputs[o.Opposite()].Push(mv.f)
		}
	}
	if r.stagedInj.ok {
		r.inputs[topo.Local].Push(r.stagedInj.f)
		r.injIdx++
		if r.injIdx == r.injPkt.Flits {
			r.injPkt, r.injIdx = nil, 0
		}
		r.stagedInj = refMove{}
	}
	if r.injPkt == nil && r.pm.HasPending() {
		if p, ok := r.pm.TakeResponse(); ok {
			r.injPkt, r.injIdx = p, 0
		} else if p, ok := r.pm.TakeRequest(); ok {
			r.injPkt, r.injIdx = p, 0
		}
	}
}

func (n *refNetwork) bufferedFlits() int {
	total := 0
	for _, r := range n.routers {
		for p := range r.inputs {
			total += r.inputs[p].Len()
		}
		if r.injPkt != nil {
			total += r.injPkt.Flits - r.injIdx
		}
	}
	return total
}

// delivery is one ejected packet: which, where and when.
type delivery struct {
	id  uint64
	dst int
	at  int64
}

// deliveries lists every ejected packet, PM by PM in delivery order.
func deliveries(pms []*fakePM) []delivery {
	var out []delivery
	for dst, pm := range pms {
		for i, p := range pm.delivered {
			out = append(out, delivery{p.ID, dst, pm.deliverAt[i]})
		}
	}
	return out
}

// Differential oracle: on random meshes (K 2–5), buffer depths 1, 2,
// 4 and cl and all four line sizes, the production tick and the reference tick deliver every
// packet at the same cycle and hold the same flits on every cycle.
func TestTickMatchesReference(t *testing.T) {
	const scripts = 10000
	start := time.Now()
	f := func(seed uint64, kRaw, bufRaw, nPkts uint8) bool {
		cfg := Config{
			Spec:        topo.MustMeshSpec(int(kRaw%4) + 2),
			LineBytes:   scriptLines[seed%uint64(len(scriptLines))],
			BufferFlits: scriptBuffers[int(bufRaw)%len(scriptBuffers)],
		}
		pkts := randomPackets(rng.New(seed), cfg.Spec.PMs(), cfg.LineBytes, int(nPkts%30)+1)

		h := newHarness(t, cfg)
		refPMs := make([]*fakePM, len(h.pms))
		for i := range refPMs {
			refPMs[i] = &fakePM{}
		}
		ref := newRefNetwork(cfg, refPMs)
		for _, p := range pkts {
			q := *p
			enqueue(h.pms[p.Src], p)
			enqueue(refPMs[q.Src], &q)
		}

		for now := int64(0); now < 40000; now++ {
			h.engine.Step()
			ref.tick(now)
			if err := h.net.CheckInvariants(); err != nil {
				t.Fatalf("seed %d cycle %d: %v", seed, now, err)
			}
			got, want := h.net.BufferedFlits(), ref.bufferedFlits()
			if got != want {
				t.Logf("seed %d %s buf %d line %d: cycle %d holds %d flits, reference %d",
					seed, cfg.Spec, cfg.BufferFlits, cfg.LineBytes, now, got, want)
				return false
			}
			if got == 0 {
				break // nothing buffered and nothing pending: drained
			}
		}
		got, want := deliveries(h.pms), deliveries(refPMs)
		if len(got) != len(pkts) || len(want) != len(pkts) {
			t.Logf("seed %d: %d and %d of %d packets delivered", seed, len(got), len(want), len(pkts))
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("seed %d %s buf %d line %d: delivery %d is %+v, reference %+v",
					seed, cfg.Spec, cfg.BufferFlits, cfg.LineBytes, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: scripts}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d scripts in %v", scripts, time.Since(start))
}
