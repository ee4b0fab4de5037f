package ring

// The reference ring tick, written from the station's prose (DESIGN
// §4.2) after the shape of a textbook ring router: an input latch, a
// transit buffer per virtual channel, a transit/inject multiplexer and
// a one-cycle route. Every station is a separately allocated struct
// whose queues are packet.FIFOs, and every cycle visits every station
// of every ring: there is no busy set, no staged bitset and no decoded
// route. TestTickMatchesReference drives it and the production tick
// from the same random injection scripts and requires the same
// per-packet delivery cycles and the same buffered flits at every
// station on every cycle.

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"ringmesh/internal/packet"
	"ringmesh/internal/rng"
	"ringmesh/internal/topo"
)

// refMove is the one flit a station sends this cycle: from which
// queue (-1 the channel's transit buffer, else an injection queue), on
// which channel, and whether the next station takes it off the ring.
type refMove struct {
	ok   bool
	f    packet.Flit
	vc   int
	src  int
	exit bool
}

type refStation struct {
	name     string
	ring     *refRing
	down     *refStation
	peer     *refStation // IRI stations: the other half
	pm       *fakePM     // NIC stations: the PM the exit delivers to, polled directly
	lo, hi   int         // the exit range
	outside  bool        // exit what lies outside [lo, hi)
	transit  [numVCs]packet.FIFO
	inject   [2]packet.FIFO
	lockPkt  [numVCs]*packet.Packet // output wormhole lock per channel
	lockSrc  [numVCs]int
	inPkt    [numVCs]*packet.Packet // the worm streaming in per channel
	inExit   [numVCs]bool
	lastVC   int
	mv       refMove
	pmOutput bool
}

type refRing struct {
	stations  []*refStation
	lo, hi    int
	noVC      bool
	resident  [numVCs]int
	stagedInj [numVCs]int
	late      bool
}

type refNetwork struct {
	stations []*refStation // build order
	rings    []*refRing    // the global ring last
	nics     []*refStation
	double   bool
}

func newRefNetwork(cfg Config, pms []*fakePM) *refNetwork {
	n := &refNetwork{nics: make([]*refStation, len(pms)), double: cfg.DoubleSpeedGlobal}
	cl := packet.RingSizing.CacheLineFlits(cfg.LineBytes)
	iriQ := cfg.IRIQueueFlits
	if iriQ == 0 {
		iriQ = cl
	}
	add := func(name string, q int) *refStation {
		st := &refStation{name: name}
		for v := range st.transit {
			st.transit[v] = packet.MakeFIFO(cl)
		}
		for i := range st.inject {
			st.inject[i] = packet.MakeFIFO(q)
		}
		n.stations = append(n.stations, st)
		return st
	}
	var build func(level, base int, parent *refStation)
	build = func(level, base int, parent *refStation) {
		spec := cfg.Spec
		r := &refRing{lo: base, hi: base + spec.SubtreeSize(level), noVC: cfg.UnsafeNoVC}
		if level == spec.NumLevels()-1 {
			for j := 0; j < spec.Levels[level]; j++ {
				id := base + j
				st := add(fmt.Sprintf("nic%d", id), cl)
				st.lo, st.hi, st.pm, st.pmOutput = id, id+1, pms[id], true
				n.nics[id] = st
				r.stations = append(r.stations, st)
			}
		} else {
			sub := spec.SubtreeSize(level + 1)
			for j := 0; j < spec.Levels[level]; j++ {
				upper := add("up", iriQ)
				upper.lo, upper.hi = base+j*sub, base+(j+1)*sub
				r.stations = append(r.stations, upper)
				build(level+1, upper.lo, upper)
			}
		}
		if parent != nil {
			lower := add("down", iriQ)
			lower.lo, lower.hi, lower.outside = r.lo, r.hi, true
			lower.peer, parent.peer = parent, lower
			r.stations = append(r.stations, lower)
		}
		for i, st := range r.stations {
			st.down, st.ring = r.stations[(i+1)%len(r.stations)], r
		}
		n.rings = append(n.rings, r)
	}
	build(0, 0, nil)
	return n
}

// vc is the channel a packet to dst rides on r: descent when dst lies
// in r's subtree, ascent while it still climbs.
func (r *refRing) vc(dst int) int {
	if r.noVC || (dst >= r.lo && dst < r.hi) {
		return vcDescent
	}
	return vcAscent
}

func (s *refStation) exits(dst int) bool { return (dst >= s.lo && dst < s.hi) != s.outside }

// Injection queue indices of the reference station: responses before
// requests.
const (
	refResp = 0
	refReq  = 1
)

func class(p *packet.Packet) int {
	if p.Type.IsResponse() {
		return refResp
	}
	return refReq
}

// queue returns the FIFO a move's src names.
func (s *refStation) queue(v, src int) *packet.FIFO {
	if src < 0 {
		return &s.transit[v]
	}
	return &s.inject[src]
}

// offer names the flit channel v would send: the locked worm's next
// flit from its source, else the transit head, else the first
// injection head (responses before requests) that rides channel v.
func (s *refStation) offer(v int) (packet.Flit, int, bool) {
	if lock := s.lockPkt[v]; lock != nil {
		f, ok := s.queue(v, s.lockSrc[v]).Peek()
		if !ok {
			return f, 0, false
		}
		if f.Pkt != lock {
			panic(fmt.Sprintf("refring: %s vc%d would interleave %s into %s", s.name, v, f, lock))
		}
		return f, s.lockSrc[v], true
	}
	if f, ok := s.transit[v].Peek(); ok {
		return f, -1, true
	}
	for i := range s.inject {
		if f, ok := s.inject[i].Peek(); ok && f.Head() && s.ring.vc(f.Pkt.Dst) == v {
			return f, i, true
		}
	}
	return packet.Flit{}, 0, false
}

// take reports whether s, the next station, can absorb f on channel v
// this cycle and whether f leaves the ring at s.
func (s *refStation) take(f packet.Flit, v int, injected bool) (exit, ok bool) {
	exit = s.inExit[v]
	if f.Head() {
		exit = s.exits(f.Pkt.Dst)
	}
	if exit {
		return true, s.pmOutput || s.peer.inject[class(f.Pkt)].Space() >= 1
	}
	if f.Head() && injected && !s.ring.noVC &&
		s.ring.resident[v]+s.ring.stagedInj[v] > len(s.ring.stations)-2 {
		return false, false // bubble rule
	}
	return false, s.transit[v].Space() >= 1
}

func (s *refStation) compute() {
	for k := 1; k <= numVCs; k++ {
		v := (s.lastVC + k) % numVCs
		f, src, ok := s.offer(v)
		if !ok {
			continue
		}
		exit, ok := s.down.take(f, v, src >= 0)
		if !ok {
			continue
		}
		if f.Head() && src >= 0 && !exit {
			s.ring.stagedInj[v]++
		}
		s.mv = refMove{ok: true, f: f, vc: v, src: src, exit: exit}
		return
	}
}

func (s *refStation) commit(now int64) {
	mv := s.mv
	s.mv = refMove{}
	if got := s.queue(mv.vc, mv.src).Pop(); got != mv.f {
		panic(fmt.Sprintf("refring: %s staged %s but popped %s", s.name, mv.f, got))
	}
	s.lastVC = mv.vc
	s.lockPkt[mv.vc], s.lockSrc[mv.vc] = mv.f.Pkt, mv.src
	if mv.f.Tail() {
		s.lockPkt[mv.vc] = nil
	}
	switch {
	case !mv.exit && mv.f.Head() && mv.src >= 0:
		s.ring.resident[mv.vc]++
	case mv.exit && mv.f.Tail() && mv.src < 0:
		s.ring.resident[mv.vc]--
	}
	d := s.down
	d.inPkt[mv.vc], d.inExit[mv.vc] = mv.f.Pkt, mv.exit
	switch {
	case !mv.exit:
		d.transit[mv.vc].Push(mv.f)
	case d.pmOutput:
		if mv.f.Tail() {
			d.pm.Deliver(mv.f.Pkt, now, s.ring.late)
		}
	default:
		d.peer.inject[class(mv.f.Pkt)].Push(mv.f)
	}
}

// refStep runs one cycle of the given rings and reports the flits moved.
func refStep(rings []*refRing, now int64) (moved int) {
	for _, r := range rings {
		r.stagedInj = [numVCs]int{}
		for _, st := range r.stations {
			st.compute()
		}
	}
	for _, r := range rings {
		for _, st := range r.stations {
			if st.mv.ok {
				st.commit(now)
				moved++
			}
		}
	}
	return moved
}

// refill moves whole pending packets from each PM into its NIC's empty
// output registers and reports how many it took.
func (n *refNetwork) refill() (took int) {
	for _, st := range n.nics {
		for i, take := range [...]func() (*packet.Packet, bool){refResp: st.pm.TakeResponse, refReq: st.pm.TakeRequest} {
			if !st.inject[i].Empty() || !st.pm.HasPending() {
				continue
			}
			if p, ok := take(); ok {
				for k := 0; k < p.Flits; k++ {
					st.inject[i].Push(packet.Flit{Pkt: p, Index: k})
				}
				took++
			}
		}
	}
	return took
}

// tick runs PM cycle now and reports whether anything moved.
func (n *refNetwork) tick(now int64) bool {
	moved := refStep(n.rings, now) + n.refill()
	if n.double {
		g := n.rings[len(n.rings)-1]
		g.late = true
		moved += refStep([]*refRing{g}, now)
		g.late = false
		if len(n.rings) == 1 {
			moved += n.refill()
		}
	}
	return moved > 0
}

// buffered returns the flits held at station i: transit, then queued.
func (n *refNetwork) buffered(i int) (transit, queued int) {
	st := n.stations[i]
	return st.transit[vcDescent].Len() + st.transit[vcAscent].Len(),
		st.inject[refResp].Len() + st.inject[refReq].Len()
}

// refDelivery is one delivered packet: which, where, when and whether
// in the second half of the PM cycle.
type refDelivery struct {
	id   uint64
	dst  int
	at   int64
	late bool
}

func refDeliveries(pms []*fakePM) []refDelivery {
	var out []refDelivery
	for dst, pm := range pms {
		for i, p := range pm.delivered {
			out = append(out, refDelivery{p.ID, dst, pm.deliverAt[i], pm.lateAt[i]})
		}
	}
	return out
}

// randomRingSpec returns a hierarchy of one to three levels of at most
// 24 PMs (internal rings branch at least twice).
func randomRingSpec(r *rng.Source) topo.RingSpec {
	switch r.Intn(3) {
	case 0:
		return topo.MustRingSpec(2 + r.Intn(11))
	case 1:
		a := 2 + r.Intn(3)
		return topo.MustRingSpec(a, 1+r.Intn(24/a))
	default:
		a, b := 2+r.Intn(2), 2+r.Intn(2)
		return topo.MustRingSpec(a, b, 1+r.Intn(24/(a*b)))
	}
}

// Differential oracle: on random hierarchies of one to three levels up
// to 24 PMs, all four line sizes, single- and double-speed global
// rings, IRI queues of cl and 2·cl flits and virtual channels on and
// off, the production tick and the reference tick deliver every packet
// at the same cycle (and half-cycle) and hold the same flits at every
// station on every cycle. Packets are released over the first cycles
// of a script, so injections meet traffic already in flight. A
// VC-less script may deadlock; it then stops once the reference stands
// still, with both models holding the same flits.
func TestTickMatchesReference(t *testing.T) {
	const scripts = 10000
	start := time.Now()
	lines := []int{16, 32, 64, 128}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		cfg := Config{
			Spec:              randomRingSpec(r),
			LineBytes:         lines[r.Intn(len(lines))],
			DoubleSpeedGlobal: r.Intn(2) == 0,
			UnsafeNoVC:        r.Intn(4) == 0,
		}
		if r.Intn(2) == 0 {
			cfg.IRIQueueFlits = 2 * packet.RingSizing.CacheLineFlits(cfg.LineBytes)
		}
		pms := cfg.Spec.PMs()
		type release struct {
			at int64
			p  *packet.Packet
		}
		script := make([]release, 1+r.Intn(24))
		var last int64
		for i := range script {
			src, dst := r.Intn(pms), r.Intn(pms-1)
			if dst >= src {
				dst++
			}
			typ := packet.Type(r.Intn(4))
			script[i] = release{int64(r.Intn(40)), &packet.Packet{ID: uint64(i + 1), Type: typ, Src: src, Dst: dst,
				Flits: packet.RingSizing.PacketFlits(typ, cfg.LineBytes)}}
			last = max(last, script[i].at)
		}

		h := newHarness(t, cfg)
		refPMs := make([]*fakePM, pms)
		for i := range refPMs {
			refPMs[i] = &fakePM{id: i}
		}
		ref := newRefNetwork(cfg, refPMs)
		for now := int64(0); now < 20000; now++ {
			for _, rel := range script {
				if rel.at == now {
					q := *rel.p
					enqueue(h.pms[q.Src], rel.p)
					enqueue(refPMs[q.Src], &q)
				}
			}
			h.engine.Step()
			moved := ref.tick(now)
			if err := h.net.CheckInvariants(); err != nil {
				t.Fatalf("seed %d cycle %d: %v", seed, now, err)
			}
			held := 0
			for i := range h.net.stations {
				st := &h.net.stations[i]
				gotT, gotQ := st.bufferedFlits(), st.queuedFlits()
				wantT, wantQ := ref.buffered(i)
				if gotT != wantT || gotQ != wantQ {
					t.Logf("seed %d %+v: cycle %d station %s holds %d transit + %d queued flits, reference %d + %d",
						seed, cfg, now, st.name, gotT, gotQ, wantT, wantQ)
					return false
				}
				held += gotT + gotQ
			}
			if now >= last && (held == 0 || !moved) {
				break // drained, or a VC-less deadlock that stands still
			}
		}
		got, want := refDeliveries(h.pms), refDeliveries(refPMs)
		if len(got) != len(want) {
			t.Logf("seed %d %+v: %d and %d packets delivered", seed, cfg, len(got), len(want))
			return false
		}
		if !cfg.UnsafeNoVC && len(got) != len(script) {
			t.Logf("seed %d %+v: %d of %d packets delivered with the VCs on", seed, cfg, len(got), len(script))
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("seed %d %+v: delivery %d is %+v, reference %+v", seed, cfg, i, got[i], want[i])
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

// enqueue appends p to its source PM's pending list of its class.
func enqueue(pm *fakePM, p *packet.Packet) {
	if p.Type.IsResponse() {
		pm.addResp(p)
	} else {
		pm.addReq(p)
	}
}
