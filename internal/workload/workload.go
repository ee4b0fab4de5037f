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
	"sort"

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
// fraction R on a machine of p PMs: ⌈R·(p−1)⌉ clamped to [0, p−1].
func regionSize(p int, r float64) int {
	if r <= 0 {
		return 0
	}
	if r >= 1 {
		return p - 1
	}
	n := int(r*float64(p-1) + 0.9999999)
	if n > p-1 {
		n = p - 1
	}
	return n
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
type MeshLocality struct {
	regions [][]int // per-src: region including src itself
	r       float64
}

// NewMeshLocality builds the mesh access pattern over mesh m with
// region fraction r in (0, 1].
func NewMeshLocality(m topo.MeshSpec, r float64) (*MeshLocality, error) {
	if r <= 0 || r > 1 {
		return nil, fmt.Errorf("workload: R = %v outside (0,1]", r)
	}
	p := m.PMs()
	n := regionSize(p, r)
	regions := make([][]int, p)
	for src := 0; src < p; src++ {
		others := make([]int, 0, p-1)
		for d := 0; d < p; d++ {
			if d != src {
				others = append(others, d)
			}
		}
		s := src
		sort.Slice(others, func(i, j int) bool {
			di, dj := m.HopDistance(s, others[i]), m.HopDistance(s, others[j])
			if di != dj {
				return di < dj
			}
			return others[i] < others[j]
		})
		region := make([]int, 0, n+1)
		region = append(region, src)
		region = append(region, others[:n]...)
		regions[src] = region
	}
	return &MeshLocality{regions: regions, r: r}, nil
}

// Target implements Pattern.
func (l *MeshLocality) Target(src int, r *rng.Source) int {
	region := l.regions[src]
	return region[r.Intn(len(region))]
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

// MMRP bundles the paper's three workload attributes plus the
// read/write mix. It is pure configuration; the processor model
// consumes it.
type MMRP struct {
	// R is the access-region fraction in (0, 1].
	R float64
	// C is the per-cycle cache miss probability (0.04 in the paper).
	C float64
	// T is the outstanding-transaction window (1, 2 or 4 in the
	// paper).
	T int
	// ReadProb is the probability a miss is a read (0.7 in the
	// paper).
	ReadProb float64
	// Deterministic, when true, spaces misses exactly 1/C cycles
	// apart instead of sampling geometric gaps (ablation option).
	Deterministic bool
	// OpenLoop, when true, keeps generating misses even while the
	// processor is blocked on its T-window; excess misses queue at
	// the processor (unboundedly, so a run held far past saturation
	// grows memory with its length) and their latency counts from
	// generation time.
	// This is the strict reading of the paper's "the rate at which
	// requests are generated is independent of the number of
	// outstanding requests"; the default (closed-loop) pauses
	// generation while blocked, which reproduces the paper's clear
	// T-dependence at low loads. An ablation experiment compares the
	// two.
	OpenLoop bool
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
