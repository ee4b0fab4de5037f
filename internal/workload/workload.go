// Package workload implements the paper's synthetic micro-benchmark
// driver: the Multiprocessor Memory Reference Pattern (M-MRP)
// generator (after Saavedra), plus a few classical traffic patterns
// used for extension studies.
//
// An M-MRP is a set of P uniprocessor reference streams, one per
// processor, each uniformly distributed over its own access region.
// Three attributes control it (paper Section 2.4):
//
//   - R, the access-region size as a fraction of the machine, controls
//     locality. A processor accesses its own PM plus the closest
//     ⌈R·(P−1)⌉ PMs — contiguous along the ring ordering for rings,
//     nearest-by-hop-count for meshes.
//   - C, the cache miss rate, controls offered load (0.04 in the
//     paper, i.e. a miss every 25 cycles on average).
//   - T, the number of outstanding transactions a processor may have
//     before blocking (models prefetching / multiple contexts).
//
// This package owns target selection (and the read/write coin); timing
// (C, T) lives with the processor model in internal/node.
package workload

import (
	"fmt"

	"ringmesh/internal/rng"
	"ringmesh/internal/topo"
)

// Pattern selects a destination PM for each reference issued by a
// source processor. Implementations must be safe for concurrent use by
// different sources only if they are stateless; all patterns here are
// immutable after construction.
type Pattern interface {
	// Target returns the destination PM for one reference from src.
	// The result may equal src (a local access that bypasses the
	// network).
	Target(src int, r *rng.Source) int
	// String describes the pattern for reports.
	String() string
}

// regionSize returns the number of remote PMs in an access region of
// fraction R on a machine of p PMs: ⌈R·(p−1)⌉ clamped to [1, p−1] for
// R > 0 (0 for R ≤ 0 or a single PM). The ceiling tolerates 1e-7 of
// float error, so 0.1·120 = 12.000000000000002 still reads 12; the
// lower clamp keeps an R that small from rounding to no remote PM.
func regionSize(p int, r float64) int {
	if r <= 0 {
		return 0
	}
	if r >= 1 {
		return p - 1
	}
	n := int(r*float64(p-1) + 0.9999999)
	return min(max(n, 1), p-1)
}

// RingLocality is the paper's locality model for hierarchical rings:
// processors are projected onto a line in ring (DFS) order and each
// accesses a contiguous region of ⌈R(P−1)/2⌉ PMs on either side of
// itself, as well as locally. The region wraps around so that it is
// symmetric for every processor (the natural reading for a ring).
type RingLocality struct {
	p    int
	half int
	r    float64
}

// NewRingLocality builds the ring access pattern for p PMs and region
// fraction r in (0, 1].
func NewRingLocality(p int, r float64) (*RingLocality, error) {
	if p < 1 {
		return nil, fmt.Errorf("workload: p = %d < 1", p)
	}
	if r <= 0 || r > 1 {
		return nil, fmt.Errorf("workload: R = %v outside (0,1]", r)
	}
	half := (regionSize(p, r) + 1) / 2
	return &RingLocality{p: p, half: half, r: r}, nil
}

// Target implements Pattern.
func (l *RingLocality) Target(src int, r *rng.Source) int {
	if l.p == 1 {
		return src
	}
	span := 2*l.half + 1
	if span >= l.p {
		// Region covers the whole machine: uniform over all PMs.
		return r.Intn(l.p)
	}
	off := r.Intn(span) - l.half
	d := (src + off) % l.p
	if d < 0 {
		d += l.p
	}
	return d
}

// String implements Pattern.
func (l *RingLocality) String() string {
	return fmt.Sprintf("ring-locality(R=%.2f, ±%d)", l.r, l.half)
}

// MeshLocality is the paper's locality model for meshes: the closest
// PMs are the ones fewest hops away, so the access region is the
// ⌈R(P−1)⌉ nearest PMs by Manhattan distance (ties broken by PM id)
// plus the local PM. Note the paper points out this model slightly
// favours meshes — it minimizes mesh hop counts by construction.
//
// All P regions live in one flat table: source src's region is
// regions[src*stride : (src+1)*stride], src itself first, then the
// remote PMs in (hop distance, id) order.
type MeshLocality struct {
	regions []int
	stride  int // region length: 1 + ⌈R(P−1)⌉
	r       float64
}

// NewMeshLocality builds the mesh access pattern over mesh m with
// region fraction r in (0, 1]. Each source's region is one counting
// sort by hop distance: prefix sums over the distance histogram give
// each distance's first slot, and a scan of the destinations in
// ascending id order fills them, so ids stay ascending within a
// distance (the tie-break) and src, the only PM at distance 0, lands
// first. The cost is O(P²) time and the same three allocations at any
// size.
func NewMeshLocality(m topo.MeshSpec, r float64) (*MeshLocality, error) {
	if r <= 0 || r > 1 {
		return nil, fmt.Errorf("workload: R = %v outside (0,1]", r)
	}
	k, p := m.K, m.PMs()
	stride := regionSize(p, r) + 1
	regions := make([]int, p*stride)
	next := make([]int, 2*k-1) // per hop distance 0 … 2(K−1)
	for src := 0; src < p; src++ {
		sx, sy := src%k, src/k
		clear(next)
		for y := 0; y < k; y++ {
			dy := absInt(y - sy)
			for x := 0; x < k; x++ {
				next[dy+absInt(x-sx)]++
			}
		}
		slot := 0
		for d, c := range next {
			next[d] = slot
			slot += c
		}
		region := regions[src*stride : (src+1)*stride]
		for y := 0; y < k; y++ {
			dy := absInt(y - sy)
			for x := 0; x < k; x++ {
				d := dy + absInt(x-sx)
				if i := next[d]; i < stride {
					region[i] = y*k + x
				}
				next[d]++
			}
		}
	}
	return &MeshLocality{regions: regions, stride: stride, r: r}, nil
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Target implements Pattern.
func (l *MeshLocality) Target(src int, r *rng.Source) int {
	return l.regions[src*l.stride+r.Intn(l.stride)]
}

// String implements Pattern.
func (l *MeshLocality) String() string {
	return fmt.Sprintf("mesh-locality(R=%.2f)", l.r)
}

// Uniform sends references uniformly over all PMs including the local
// one — identical to either locality model at R = 1. No production
// code builds one; it stays as a steering fixture of the PM tests
// (internal/node).
type Uniform struct{ P int }

// Target implements Pattern.
func (u Uniform) Target(src int, r *rng.Source) int { return r.Intn(u.P) }

// String implements Pattern.
func (u Uniform) String() string { return "uniform" }

// Hotspot directs a fraction of references at a single hot PM and the
// rest uniformly. It is in none of the paper's figures and no
// production code builds one; it stays because the PM tests
// (internal/node) steer every reference at a chosen PM with it.
type Hotspot struct {
	P        int
	Hot      int
	Fraction float64
}

// Target implements Pattern.
func (h Hotspot) Target(src int, r *rng.Source) int {
	if r.Bernoulli(h.Fraction) {
		return h.Hot
	}
	return r.Intn(h.P)
}

// String implements Pattern.
func (h Hotspot) String() string {
	return fmt.Sprintf("hotspot(pm=%d, f=%.2f)", h.Hot, h.Fraction)
}

// MMRP is the paper's M-MRP synthetic workload: every processor
// issues cache misses over an access region of its R·(P−1) closest
// PMs, at rate C misses per cycle, blocking after T outstanding
// transactions. It is pure configuration; the processor model
// consumes it. The public ringmesh.Workload is this type, so the JSON
// names are the ringmeshd serving API's wire format.
type MMRP struct {
	// R is the access-region fraction in (0, 1]; 1.0 means no
	// locality (uniform over the machine).
	R float64 `json:"r"`
	// C is the per-cycle cache miss probability (paper: 0.04).
	C float64 `json:"c"`
	// T is the number of outstanding transactions a processor may
	// have before blocking (paper: 1, 2 or 4).
	T int `json:"t"`
	// ReadProb is the probability a miss is a read (paper: 0.7).
	ReadProb float64 `json:"read_prob"`
	// Deterministic spaces misses exactly 1/C cycles apart instead of
	// geometrically (an ablation option; the paper's generator is
	// stochastic).
	Deterministic bool `json:"deterministic,omitempty"`
	// OpenLoop keeps generating misses while the processor is blocked
	// on its T-window; excess misses queue at the processor
	// (unboundedly, so a run held far past saturation grows memory
	// with its length) and their latency counts from generation time.
	// This is the strict reading of the paper's "the rate at which
	// requests are generated is independent of the number of
	// outstanding requests"; the default (closed-loop) pauses
	// generation while blocked, which reproduces the paper's clear
	// T-dependence at low loads. No experiment sets it: the open-loop
	// goldens pin it, TestOpenLoopWorkload compares the two modes, and
	// the analytic tier refuses it.
	OpenLoop bool `json:"open_loop,omitempty"`
}

// Validate checks the attribute ranges.
func (w MMRP) Validate() error {
	if w.R <= 0 || w.R > 1 {
		return fmt.Errorf("workload: R = %v outside (0,1]", w.R)
	}
	if w.C <= 0 || w.C > 1 {
		return fmt.Errorf("workload: C = %v outside (0,1]", w.C)
	}
	if w.T < 1 {
		return fmt.Errorf("workload: T = %d < 1", w.T)
	}
	if w.ReadProb < 0 || w.ReadProb > 1 {
		return fmt.Errorf("workload: ReadProb = %v outside [0,1]", w.ReadProb)
	}
	return nil
}

// PaperDefaults returns the paper's baseline workload: R=1.0, C=0.04,
// T=4, 70% reads, geometric gaps.
func PaperDefaults() MMRP {
	return MMRP{R: 1.0, C: 0.04, T: 4, ReadProb: 0.7}
}
