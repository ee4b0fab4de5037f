// Package topo describes the two network geometries of the study:
// trees of unidirectional rings (in the paper's "2:3:4" notation) and
// square 2D meshes. It owns all address arithmetic — PM numbering,
// subtree ranges used for ring routing, hop distances — and the
// enumeration of candidate ring hierarchies used by the Table 2
// optimal-topology search.
package topo

import (
	"fmt"
	"strconv"
	"strings"
)

// RingSpec describes a hierarchy of unidirectional rings as branching
// factors from the global ring down to processing modules.
//
// Levels[0] is the number of children of the global (top-level) ring;
// Levels[len-1] is the number of PMs on each local (lowest-level)
// ring. The paper's "2:3:4" — one global ring, 2 intermediate rings,
// 3 local rings per intermediate ring, 4 PMs per local ring — is
// RingSpec{Levels: []int{2, 3, 4}}. A single ring of 8 PMs is
// RingSpec{Levels: []int{8}}.
type RingSpec struct {
	Levels []int
}

// MaxPMs is the largest machine a spec, ring or mesh, may describe:
// eight times the paper's largest system (121-128 PMs). At this size
// the costliest things done per geometry — a 32x32 mesh's P² locality
// table, a 1024-PM system build — take about 20 ms and 10 MB, so a
// hostile "1000:1000:8" or "300x300" is refused while it is still a
// string instead of hanging or exhausting whoever resolves it.
const MaxPMs = 1024

// NewRingSpec returns a validated spec. Every branching factor must be
// at least 1, there must be at least one level, and the PM count must
// not exceed MaxPMs.
func NewRingSpec(levels ...int) (RingSpec, error) {
	if len(levels) == 0 {
		return RingSpec{}, fmt.Errorf("topo: ring spec needs at least one level")
	}
	pms := 1
	for i, b := range levels {
		if b < 1 {
			return RingSpec{}, fmt.Errorf("topo: level %d branching %d < 1", i, b)
		}
		if b > MaxPMs/pms { // pms*b > MaxPMs, without the overflow
			return RingSpec{}, fmt.Errorf("topo: ring spec exceeds %d PMs at level %d (branching %d)", MaxPMs, i, b)
		}
		pms *= b
	}
	cp := make([]int, len(levels))
	copy(cp, levels)
	return RingSpec{Levels: cp}, nil
}

// MustRingSpec is NewRingSpec that panics on error, for literals in
// tests and experiment tables.
func MustRingSpec(levels ...int) RingSpec {
	s, err := NewRingSpec(levels...)
	if err != nil {
		panic(err)
	}
	return s
}

// ParseRingSpec parses the paper's colon notation, e.g. "2:3:4" or
// "12".
func ParseRingSpec(s string) (RingSpec, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	levels := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return RingSpec{}, fmt.Errorf("topo: bad ring spec %q: %v", s, err)
		}
		levels = append(levels, v)
	}
	return NewRingSpec(levels...)
}

// String renders the spec in colon notation.
func (r RingSpec) String() string {
	parts := make([]string, len(r.Levels))
	for i, b := range r.Levels {
		parts[i] = strconv.Itoa(b)
	}
	return strings.Join(parts, ":")
}

// NumLevels returns the depth of the hierarchy (1 = single ring).
func (r RingSpec) NumLevels() int { return len(r.Levels) }

// PMs returns the total number of processing modules.
func (r RingSpec) PMs() int {
	p := 1
	for _, b := range r.Levels {
		p *= b
	}
	return p
}

// Digits decomposes PM id p into its per-level child indices
// (mixed-radix representation): digit[i] selects the child taken at
// level i on the way from the global ring to the PM. Digits are
// ordered most-significant (global) first, so DFS PM numbering makes
// every subtree a contiguous id range. RingHops strips the same digits
// in registers and no production code calls Digits; it stays as the
// independently written oracle ring_test.go checks RingHops against.
func (r RingSpec) Digits(p int) []int {
	r.checkPM(p)
	d := make([]int, len(r.Levels))
	for i := len(r.Levels) - 1; i >= 0; i-- {
		d[i] = p % r.Levels[i]
		p /= r.Levels[i]
	}
	return d
}

// PM reassembles a PM id from its digits (inverse of Digits).
func (r RingSpec) PM(digits []int) int {
	if len(digits) != len(r.Levels) {
		panic("topo: digit count mismatch")
	}
	p := 0
	for i, d := range digits {
		if d < 0 || d >= r.Levels[i] {
			panic(fmt.Sprintf("topo: digit %d=%d out of range", i, d))
		}
		p = p*r.Levels[i] + d
	}
	return p
}

// SubtreeSize returns the number of PMs below one node at the given
// level boundary: the subtree rooted at a child taken from a level-i
// ring spans SubtreeSize(i) PMs. SubtreeSize(len(Levels)) == 1.
func (r RingSpec) SubtreeSize(level int) int {
	if level < 0 || level > len(r.Levels) {
		panic("topo: level out of range")
	}
	n := 1
	for i := level; i < len(r.Levels); i++ {
		n *= r.Levels[i]
	}
	return n
}

// RingHops returns the number of link traversals a packet makes from
// the source NIC to the destination NIC under the hierarchy's
// deterministic unidirectional routing: around the source local ring
// to the up-IRI, up to the lowest common ring, around it, and down to
// the destination. Since every node forwards in one cycle, this is
// also the zero-load network transit time in cycles. src == dst gives
// 0.
//
// Ring sizes: the global ring has Levels[0] slots; every other ring
// has Levels[i] child slots plus one parent-IRI slot.
func (r RingSpec) RingHops(src, dst int) int {
	if src == dst {
		return 0
	}
	r.checkPM(src)
	r.checkPM(dst)
	// Strip digits leaf-first. While the remaining prefixes differ the
	// level-i rings of src and dst are distinct: the packet climbs the
	// source's from its child slot s to the parent-IRI slot Levels[i]
	// (Levels[i]-s links) and later descends the destination's from
	// that slot round to child slot d (d+1 links). The first level at
	// which the prefixes agree is the lowest common ring.
	hops := 0
	for i := len(r.Levels) - 1; ; i-- {
		b := r.Levels[i]
		s, d := src%b, dst%b
		src, dst = src/b, dst/b
		if src == dst {
			if d < s {
				d += r.ringSize(i)
			}
			return hops + d - s
		}
		hops += b - s + d + 1
	}
}

// RoundTripHops returns RingHops(src, dst) + RingHops(dst, src). On
// unidirectional rings the request and its response together circle
// every ring they touch exactly once — the lowest common ring, and the
// source-side and destination-side ring of each level below it — so
// the sum depends only on the level at which the two PMs meet.
func (r RingSpec) RoundTripHops(src, dst int) int {
	if src == dst {
		return 0
	}
	r.checkPM(src)
	r.checkPM(dst)
	hops := 0
	for i := len(r.Levels) - 1; ; i-- {
		src, dst = src/r.Levels[i], dst/r.Levels[i]
		if src == dst {
			return hops + r.ringSize(i)
		}
		hops += 2 * r.ringSize(i)
	}
}

// ringSize is the slot count of a level-i ring: its children, plus the
// parent-IRI slot every ring but the global one carries.
func (r RingSpec) ringSize(i int) int {
	if i == 0 {
		return r.Levels[0]
	}
	return r.Levels[i] + 1
}

func (r RingSpec) checkPM(p int) {
	if p < 0 || p >= r.PMs() {
		panic(fmt.Sprintf("topo: PM %d out of range [0,%d)", p, r.PMs()))
	}
}

// AverageRingHops returns the mean RingHops over all ordered pairs of
// distinct PMs — a cheap analytic figure of merit used by the
// topology search to break ties before simulation scoring. Summed over
// ordered pairs, one-way hops are half the round trips, and
// P·(Levels[m]-1)·SubtreeSize(m+1) ordered pairs meet at level m.
func (r RingSpec) AverageRingHops() float64 {
	p := r.PMs()
	if p < 2 {
		return 0
	}
	total, sub, below := 0, 1, 0 // SubtreeSize(m+1); round-trip hops on the rings below level m
	for m := len(r.Levels) - 1; m >= 0; m-- {
		total += p * (r.Levels[m] - 1) * sub * (below + r.ringSize(m))
		sub *= r.Levels[m]
		below += 2 * r.ringSize(m)
	}
	return float64(total/2) / float64(p*(p-1))
}

// EnumerateRingSpecs returns every hierarchy with exactly pms PMs
// subject to the constraints: at most maxLevels levels, internal
// (non-leaf) branching between 2 and maxBranch, and leaf rings holding
// between 2 and maxLeaf PMs (a 1-level spec is allowed whenever
// pms <= maxLeaf). The result is deterministic (lexicographic).
func EnumerateRingSpecs(pms, maxLevels, maxBranch, maxLeaf int) []RingSpec {
	if pms < 1 || pms > MaxPMs || maxLevels < 1 {
		return nil
	}
	var out []RingSpec
	var prefix []int
	var rec func(rem, depth int)
	rec = func(rem, depth int) {
		// Close out with a leaf level.
		if rem >= 1 && rem <= maxLeaf && (depth > 0 || rem == pms) {
			levels := append(append([]int{}, prefix...), rem)
			out = append(out, MustRingSpec(levels...))
		}
		if depth+1 >= maxLevels {
			return
		}
		for b := 2; b <= maxBranch && b < rem; b++ {
			if rem%b != 0 {
				continue
			}
			prefix = append(prefix, b)
			rec(rem/b, depth+1)
			prefix = prefix[:len(prefix)-1]
		}
	}
	rec(pms, 0)
	return out
}
