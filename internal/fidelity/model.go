package fidelity

import (
	"fmt"

	"ringmesh/internal/core"
	"ringmesh/internal/packet"
	"ringmesh/internal/rng"
	"ringmesh/internal/topo"
	"ringmesh/internal/workload"
)

// The formulas read four numbers of the configuration: the cache line
// size (Net.LineBytes), the memory service time (MemLatency), the read
// probability (Workload.ReadProb) and the mesh router buffer depth
// (Net.BufferFlits, 0 = cl).

// A transaction's zero-load round trip is the request's and the
// response's hops plus a pair-free term: flits, memory pickup and
// service. On both sizings a read and a write have the same pair-free
// cycles (request and response trade the payload), so ReadProb never
// moves the zero-load latency; the estimator still weighs the two
// kinds, so the answer does not depend on that coincidence.

// ringPairFree returns the pair-free cycles of one ring transaction,
// matching the simulator's pipeline: the request tail arrives
// h_req+f_req-1 cycles after issue, memory picks it up next cycle and
// serves for MemLatency, and the response tail lands h_resp+f_resp-1
// cycles after injection. Its pair term is RingSpec.RoundTripHops.
func ringPairFree(cfg core.SystemConfig, read bool) int {
	return transactionFlits(packet.RingSizing, cfg.Net.LineBytes, read) + cfg.MemLatency - 1
}

// meshPairFree is the mesh analogue, whose pair term is twice the
// e-cube distance. With buffers of two or more flits a worm streams at
// full rate: injection starts one cycle after issue and the tail
// arrives 1+h+f cycles in. With 1-flit buffers the one-cycle credit
// loop lets each buffer accept a flit only every other cycle, halving
// the streaming rate — the root of the paper's 1-flit-buffer results —
// and delivery takes h+2f cycles (both validated against the
// flit-level simulator). Memory pickup adds one cycle before its fixed
// service time.
func meshPairFree(cfg core.SystemConfig, read bool) int {
	f := transactionFlits(packet.MeshSizing, cfg.Net.LineBytes, read)
	if cfg.Net.BufferFlits == 1 {
		return 2*f + 1 + cfg.MemLatency // h+2f each way
	}
	return f + 2 + 1 + cfg.MemLatency // 1+h+f each way
}

// transactionFlits returns the request's plus the response's flits of
// one read or write transaction.
func transactionFlits(s packet.Sizing, line int, read bool) int {
	if read {
		return s.PacketFlits(packet.ReadRequest, line) + s.PacketFlits(packet.ReadResponse, line)
	}
	return s.PacketFlits(packet.WriteRequest, line) + s.PacketFlits(packet.WriteResponse, line)
}

// sampleTargets walks the pattern's target distribution once by
// deterministic dense sampling (fixed seed, so the "analytic" value is
// itself reproducible; with thousands of draws per machine the
// sampling error is well under a cycle) and returns the mean
// zero-load round trip over the remote draws — local accesses bypass
// the network, and the simulator measures remote ones only — and the
// fraction of draws that were remote. A draw's round trip is
// hops(src, dst) plus the read or write transaction's pair-free
// cycles, weighted by readProb.
func sampleTargets(pms int, pat workload.Pattern, hops func(src, dst int) int, kRead, kWrite int, readProb float64) (meanLat, remoteFrac float64, err error) {
	const draws = 2000
	r := rng.New(0xA11A11A)
	total, remote, all := 0.0, 0, 0
	for src := 0; src < pms; src++ {
		for i := 0; i < draws/pms+1; i++ {
			all++
			dst := pat.Target(src, r)
			if dst == src {
				continue
			}
			h := hops(src, dst)
			total += readProb*float64(h+kRead) + (1-readProb)*float64(h+kWrite)
			remote++
		}
	}
	if remote == 0 {
		return 0, 0, fmt.Errorf("fidelity: no remote targets sampled")
	}
	return total / float64(remote), float64(remote) / float64(all), nil
}

// ringBisectionBound returns the highest sustainable per-PM remote
// transaction rate (transactions/cycle) imposed by the global ring of
// a hierarchy: it moves one flit per cycle per link, and under uniform
// traffic a fraction of all transactions' flits must traverse it.
func ringBisectionBound(spec topo.RingSpec, cfg core.SystemConfig) float64 {
	if spec.NumLevels() < 2 {
		return 1 // no global ring: bounded elsewhere
	}
	pms := spec.PMs()
	sub := spec.SubtreeSize(1) // PMs per global-ring child
	branches := spec.Levels[0]
	// Probability a uniform-random remote transaction crosses between
	// two different children of the global ring.
	cross := float64((branches-1)*sub) / float64(pms-1)
	// Flits moved per transaction (request one way, response back).
	flits := avgTransactionFlits(packet.RingSizing, cfg)
	// Global ring capacity: one flit per link per cycle; `branches`
	// links total, each crossing transaction occupies on average
	// (branches+1)/2 of them per direction... conservatively use the
	// aggregate: capacity = branches flit-cycles, and a crossing
	// transaction's flits traverse on average half the ring per
	// packet.
	avgLinks := float64(branches+1) / 2
	demandPerTx := cross * flits * avgLinks / 2
	if demandPerTx == 0 {
		return 1
	}
	return float64(branches) / demandPerTx / float64(pms)
}

// meshBisectionBound returns the per-PM remote transaction rate bound
// from the mesh bisection: 2K directed links each way across the cut,
// and under uniform traffic half of all transactions cross it.
func meshBisectionBound(spec topo.MeshSpec, cfg core.SystemConfig) float64 {
	k := spec.K
	if k < 2 {
		return 1
	}
	pms := float64(spec.PMs())
	// Under uniform traffic half of all transactions cross the
	// vertical bisection. The cut carries k directed links per
	// direction (one per row), and a crossing transaction sends half
	// its flits each way (request out, response back).
	cross := 0.5
	flits := avgTransactionFlits(packet.MeshSizing, cfg) / 2 // per direction
	capacityPerDirection := float64(k)
	bound := capacityPerDirection / (cross * flits)
	return bound / (pms / 2)
}

// avgTransactionFlits returns the expected total flits (request +
// response) of one transaction.
func avgTransactionFlits(s packet.Sizing, cfg core.SystemConfig) float64 {
	line, readProb := cfg.Net.LineBytes, cfg.Workload.ReadProb
	return readProb*float64(transactionFlits(s, line, true)) + (1-readProb)*float64(transactionFlits(s, line, false))
}
