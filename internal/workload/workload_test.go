package workload

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"ringmesh/internal/rng"
	"ringmesh/internal/topo"
)

func TestRegionSize(t *testing.T) {
	cases := []struct {
		p    int
		r    float64
		want int
	}{
		{16, 1.0, 15},
		{16, 0.0, 0},
		{16, 0.2, 3},   // ceil(0.2*15)
		{121, 0.1, 12}, // ceil(0.1*120)
		{121, 0.3, 36},
		{4, 0.01, 1}, // tiny R still reaches one neighbour
		// R(P−1) below the ceiling's 1e-7 float tolerance used to
		// round to an empty region.
		{2, 1e-9, 1},
		{1024, 1e-9, 1},
		{1, 1e-9, 0},
	}
	for _, c := range cases {
		if got := regionSize(c.p, c.r); got != c.want {
			t.Errorf("regionSize(%d, %v) = %d, want %d", c.p, c.r, got, c.want)
		}
	}
}

// regionSize's float ceiling must agree with the exact integer ceiling
// ⌈(P−1)·a/b⌉ at every machine size and at the R values the figures use.
func TestRegionSizeIsExactCeiling(t *testing.T) {
	for _, f := range [][2]int{{1, 20}, {1, 10}, {1, 5}, {3, 10}, {1, 2}, {1, 1}} {
		a, b := f[0], f[1]
		r := float64(a) / float64(b)
		for p := 1; p <= 1024; p++ {
			if got, want := regionSize(p, r), ((p-1)*a+b-1)/b; got != want {
				t.Errorf("regionSize(%d, %d/%d) = %d, want %d", p, a, b, got, want)
			}
		}
	}
}

func TestRingLocalityFullMachine(t *testing.T) {
	l, err := NewRingLocality(16, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	seen := map[int]bool{}
	for i := 0; i < 5000; i++ {
		d := l.Target(3, r)
		if d < 0 || d >= 16 {
			t.Fatalf("target %d out of range", d)
		}
		seen[d] = true
	}
	if len(seen) != 16 {
		t.Fatalf("R=1.0 should reach all 16 PMs, reached %d", len(seen))
	}
}

func TestRingLocalityRegionIsContiguous(t *testing.T) {
	p := 20
	l, err := NewRingLocality(p, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// half = ceil((ceil(0.2*19)+1)/2) = (4+1)/2 = 2
	r := rng.New(2)
	src := 0
	allowed := map[int]bool{18: true, 19: true, 0: true, 1: true, 2: true}
	for i := 0; i < 5000; i++ {
		d := l.Target(src, r)
		if !allowed[d] {
			t.Fatalf("target %d outside contiguous wrapped region", d)
		}
	}
}

func TestRingLocalityValidation(t *testing.T) {
	if _, err := NewRingLocality(0, 0.5); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := NewRingLocality(8, 0); err == nil {
		t.Fatal("R=0 accepted")
	}
	if _, err := NewRingLocality(8, 1.5); err == nil {
		t.Fatal("R>1 accepted")
	}
}

func TestRingLocalitySinglePM(t *testing.T) {
	l, err := NewRingLocality(1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if l.Target(0, rng.New(1)) != 0 {
		t.Fatal("single PM must target itself")
	}
}

func TestMeshLocalityNearest(t *testing.T) {
	m := topo.MustMeshSpec(4)
	l, err := NewMeshLocality(m, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// region for each src: self + ceil(0.2*15)=3 nearest.
	r := rng.New(3)
	src := m.ID(1, 1) // PM 5: nearest are 1,4,6 at distance 1 (ids 1,4,6)
	allowed := map[int]bool{5: true, 1: true, 4: true, 6: true}
	for i := 0; i < 3000; i++ {
		d := l.Target(src, r)
		if !allowed[d] {
			t.Fatalf("target %d not among nearest of PM %d", d, src)
		}
	}
}

func TestMeshLocalityFull(t *testing.T) {
	m := topo.MustMeshSpec(3)
	l, err := NewMeshLocality(m, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	seen := map[int]bool{}
	for i := 0; i < 5000; i++ {
		seen[l.Target(4, r)] = true
	}
	if len(seen) != 9 {
		t.Fatalf("R=1.0 mesh should reach all PMs, reached %d", len(seen))
	}
}

// sortedOthers is the reference construction: per source, every other
// PM sorted by (hop distance, id). A region of n remote PMs is src
// followed by the first n of them.
func sortedOthers(m topo.MeshSpec) [][]int {
	p := m.PMs()
	all := make([][]int, p)
	for src := 0; src < p; src++ {
		others := make([]int, 0, p-1)
		for d := 0; d < p; d++ {
			if d != src {
				others = append(others, d)
			}
		}
		sort.Slice(others, func(i, j int) bool {
			di, dj := m.HopDistance(src, others[i]), m.HopDistance(src, others[j])
			if di != dj {
				return di < dj
			}
			return others[i] < others[j]
		})
		all[src] = others
	}
	return all
}

// The counting-sorted table holds, element for element, the regions a
// (distance, id) comparison sort gives, so every draw is unchanged.
func TestMeshLocalityRegionsMatchSortReference(t *testing.T) {
	sides := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 16, 32}
	for _, k := range sides {
		m := topo.MustMeshSpec(k)
		ref := sortedOthers(m)
		for _, r := range []float64{0.05, 0.1, 0.2, 0.3, 0.5, 1.0} {
			l, err := NewMeshLocality(m, r)
			if err != nil {
				t.Fatal(err)
			}
			n := regionSize(m.PMs(), r)
			for src, others := range ref {
				want := append([]int{src}, others[:n]...)
				got := l.regions[src*l.stride : (src+1)*l.stride]
				if !slices.Equal(got, want) {
					t.Fatalf("%v R=%v src %d: region %v, want %v", m, r, src, got, want)
				}
			}
		}
	}
}

// Building the table allocates the same handful of objects at any mesh
// size: no per-source slices.
func TestMeshLocalityAllocations(t *testing.T) {
	allocs := func(k int) float64 {
		m := topo.MustMeshSpec(k)
		return testing.AllocsPerRun(100, func() {
			if _, err := NewMeshLocality(m, 0.3); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(4), allocs(32); small != large {
		t.Fatalf("NewMeshLocality allocates %v objects at 4x4 but %v at 32x32", small, large)
	}
}

func TestMeshLocalityValidation(t *testing.T) {
	if _, err := NewMeshLocality(topo.MustMeshSpec(2), 0); err == nil {
		t.Fatal("R=0 accepted")
	}
}

func TestUniformCoversAll(t *testing.T) {
	u := Uniform{P: 7}
	r := rng.New(5)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		counts[u.Target(2, r)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/7) > 0.08*n/7 {
			t.Fatalf("uniform bucket %d = %d", i, c)
		}
	}
}

func TestHotspot(t *testing.T) {
	h := Hotspot{P: 10, Hot: 3, Fraction: 0.5}
	r := rng.New(6)
	hot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if h.Target(0, r) == 3 {
			hot++
		}
	}
	// 50% direct + 10% of the uniform remainder = 55%.
	frac := float64(hot) / n
	if math.Abs(frac-0.55) > 0.03 {
		t.Fatalf("hotspot fraction = %v", frac)
	}
}

func TestMMRPValidate(t *testing.T) {
	good := PaperDefaults()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []MMRP{
		{R: 0, C: 0.04, T: 4, ReadProb: 0.7},
		{R: 1, C: 0, T: 4, ReadProb: 0.7},
		{R: 1, C: 0.04, T: 0, ReadProb: 0.7},
		{R: 1, C: 0.04, T: 4, ReadProb: 1.1},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestPaperDefaults(t *testing.T) {
	w := PaperDefaults()
	if w.R != 1.0 || w.C != 0.04 || w.T != 4 || w.ReadProb != 0.7 {
		t.Fatalf("paper defaults wrong: %+v", w)
	}
}

// Property: every pattern returns targets in [0, P) for arbitrary
// sources and seeds.
func TestQuickPatternsInRange(t *testing.T) {
	m := topo.MustMeshSpec(4)
	ring, _ := NewRingLocality(16, 0.3)
	mesh, _ := NewMeshLocality(m, 0.3)
	pats := []Pattern{ring, mesh, Uniform{P: 16},
		Hotspot{P: 16, Hot: 5, Fraction: 0.3}}
	f := func(seed uint64, srcRaw uint8) bool {
		src := int(srcRaw) % 16
		r := rng.New(seed)
		for _, p := range pats {
			for i := 0; i < 20; i++ {
				d := p.Target(src, r)
				if d < 0 || d >= 16 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ring and mesh locality regions have identical sizes for
// the same (P, R) up to the paper's rounding (ring region is
// 2*ceil((n+1)/2)+1 where n = ceil(R(P-1))), so the offered remote
// load is comparable across networks.
func TestQuickRegionComparable(t *testing.T) {
	f := func(rRaw uint8) bool {
		r := float64(rRaw%90+10) / 100 // 0.10 .. 0.99
		p := 49
		n := regionSize(p, r)
		ring, err := NewRingLocality(p, r)
		if err != nil {
			return false
		}
		ringSpan := 2*ring.half + 1
		return ringSpan >= n && ringSpan <= n+2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPatternStrings(t *testing.T) {
	m := topo.MustMeshSpec(2)
	ring, _ := NewRingLocality(4, 0.5)
	mesh, _ := NewMeshLocality(m, 0.5)
	for _, p := range []Pattern{ring, mesh, Uniform{P: 4},
		Hotspot{P: 4, Hot: 0, Fraction: 0.1}} {
		if p.String() == "" {
			t.Fatalf("%T has empty String()", p)
		}
	}
}
