package topo

import (
	"testing"
	"testing/quick"
)

func TestParseRingSpec(t *testing.T) {
	cases := map[string][]int{
		"2:3:4":   {2, 3, 4},
		"12":      {12},
		" 3 : 8 ": {3, 8},
	}
	for in, want := range cases {
		got, err := ParseRingSpec(in)
		if err != nil {
			t.Fatalf("ParseRingSpec(%q): %v", in, err)
		}
		if len(got.Levels) != len(want) {
			t.Fatalf("ParseRingSpec(%q) = %v", in, got)
		}
		for i := range want {
			if got.Levels[i] != want[i] {
				t.Fatalf("ParseRingSpec(%q) = %v", in, got)
			}
		}
	}
	for _, bad := range []string{"", "a", "2::3", "0", "2:-1"} {
		if _, err := ParseRingSpec(bad); err == nil {
			t.Fatalf("ParseRingSpec(%q) should fail", bad)
		}
	}
}

func TestRingSpecStringRoundTrip(t *testing.T) {
	for _, s := range []string{"2:3:4", "12", "3:3:3:4"} {
		spec, err := ParseRingSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		if spec.String() != s {
			t.Fatalf("round trip %q -> %q", s, spec.String())
		}
	}
}

func TestPMsAndRings(t *testing.T) {
	spec := MustRingSpec(2, 3, 4)
	if spec.PMs() != 24 {
		t.Fatalf("PMs = %d", spec.PMs())
	}
	if spec.NumLevels() != 3 {
		t.Fatalf("levels = %d", spec.NumLevels())
	}
}

func TestDigitsRoundTrip(t *testing.T) {
	spec := MustRingSpec(2, 3, 4)
	for p := 0; p < spec.PMs(); p++ {
		d := spec.Digits(p)
		if spec.PM(d) != p {
			t.Fatalf("digits round trip failed for %d: %v", p, d)
		}
	}
	// DFS ordering: PM 0 is digits {0,0,0}; PM 23 is {1,2,3}.
	d := spec.Digits(23)
	if d[0] != 1 || d[1] != 2 || d[2] != 3 {
		t.Fatalf("digits(23) = %v", d)
	}
}

func TestSubtreeSize(t *testing.T) {
	spec := MustRingSpec(2, 3, 4)
	if spec.SubtreeSize(0) != 24 || spec.SubtreeSize(1) != 12 ||
		spec.SubtreeSize(2) != 4 || spec.SubtreeSize(3) != 1 {
		t.Fatal("SubtreeSize wrong")
	}
}

func TestRingHopsSingleRing(t *testing.T) {
	// On a single unidirectional ring of 6 NICs, hops from s to d is
	// (d-s) mod 6.
	spec := MustRingSpec(6)
	for s := 0; s < 6; s++ {
		for d := 0; d < 6; d++ {
			want := mod(d-s, 6)
			if got := spec.RingHops(s, d); got != want {
				t.Fatalf("RingHops(%d,%d) = %d, want %d", s, d, got, want)
			}
		}
	}
}

func TestRingHopsTwoLevel(t *testing.T) {
	// 2 local rings of 3 PMs: local rings have 4 slots (3 NICs +
	// parent IRI at slot 3); global ring has 2 slots.
	spec := MustRingSpec(2, 3)
	// Same ring: PM 0 -> PM 1 is one link.
	if got := spec.RingHops(0, 1); got != 1 {
		t.Fatalf("same-ring hop = %d", got)
	}
	// PM 1 -> PM 0: around the ring through the IRI slot: 1->2->IRI->0
	// = 3 links.
	if got := spec.RingHops(1, 0); got != 3 {
		t.Fatalf("wrap hop = %d", got)
	}
	// Cross ring, PM 0 (ring 0 slot 0) -> PM 3 (ring 1 slot 0):
	// ascend 0->1->2->IRI = 3 links, global IRI0->IRI1 = 1 link,
	// descend IRI->slot0 = 1 link. Total 5.
	if got := spec.RingHops(0, 3); got != 5 {
		t.Fatalf("cross-ring hops = %d, want 5", got)
	}
	if spec.RingHops(4, 4) != 0 {
		t.Fatal("self distance should be 0")
	}
}

func TestRingHopsThreeLevelSymmetry(t *testing.T) {
	spec := MustRingSpec(2, 2, 2)
	// Unidirectional rings: distance is not symmetric, but every
	// ordered pair must have a finite positive distance.
	for s := 0; s < spec.PMs(); s++ {
		for d := 0; d < spec.PMs(); d++ {
			h := spec.RingHops(s, d)
			if s == d && h != 0 {
				t.Fatalf("self hops %d", h)
			}
			if s != d && h <= 0 {
				t.Fatalf("RingHops(%d,%d) = %d", s, d, h)
			}
		}
	}
}

func TestAverageRingHopsGrowsWithWrap(t *testing.T) {
	// A deeper hierarchy of the same PM count has longer average
	// distance than a single ring only when the single ring is small;
	// here just sanity-check monotone positivity and a hand value.
	single := MustRingSpec(4)
	// Ordered pairs on a 4-ring: distances 1,2,3 each appearing 4
	// times → mean 2.
	if got := single.AverageRingHops(); got != 2 {
		t.Fatalf("avg hops on 4-ring = %v", got)
	}
}

func TestEnumerateRingSpecs(t *testing.T) {
	specs := EnumerateRingSpecs(24, 3, 3, 12)
	if len(specs) == 0 {
		t.Fatal("no specs for 24 PMs")
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if s.PMs() != 24 {
			t.Fatalf("spec %v has %d PMs", s, s.PMs())
		}
		if s.NumLevels() > 3 {
			t.Fatalf("spec %v too deep", s)
		}
		if seen[s.String()] {
			t.Fatalf("duplicate spec %v", s)
		}
		seen[s.String()] = true
		for i, b := range s.Levels {
			if i < len(s.Levels)-1 && (b < 2 || b > 3) {
				t.Fatalf("spec %v internal branch %d", s, b)
			}
			if i == len(s.Levels)-1 && b > 12 {
				t.Fatalf("spec %v leaf %d", s, b)
			}
		}
	}
	// The paper's 24-PM 16B topology 2:12 must be among them.
	if !seen["2:12"] {
		t.Fatalf("2:12 missing from %v", specs)
	}
	// And 2:2:6 (3-level option).
	if !seen["2:2:6"] {
		t.Fatalf("2:2:6 missing from %v", specs)
	}
}

func TestEnumerateRespectsSingleRing(t *testing.T) {
	specs := EnumerateRingSpecs(8, 3, 3, 8)
	found := false
	for _, s := range specs {
		if s.String() == "8" {
			found = true
		}
	}
	if !found {
		t.Fatal("single-ring spec not enumerated when leaf cap allows")
	}
	specs = EnumerateRingSpecs(9, 2, 3, 8)
	for _, s := range specs {
		if s.NumLevels() == 1 {
			t.Fatal("9 > maxLeaf 8 must not yield a single ring")
		}
	}
}

func TestNewRingSpecValidation(t *testing.T) {
	if _, err := NewRingSpec(); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := NewRingSpec(2, 0); err == nil {
		t.Fatal("zero branch accepted")
	}
}

// Property: RingHops is consistent with a walk along ring slots — the
// total distance around any single ring from a PM back to itself via
// all others equals the ring circumference.
func TestQuickRingHopsBounds(t *testing.T) {
	f := func(a, b, c uint8) bool {
		l0 := int(a%3) + 2
		l1 := int(b%3) + 2
		l2 := int(c%4) + 2
		spec := MustRingSpec(l0, l1, l2)
		p := spec.PMs()
		// Upper bound: sum of all ring circumferences along the
		// longest possible route (leaf + mid + global + mid + leaf).
		bound := 2*(l2+1) + 2*(l1+1) + l0
		for s := 0; s < p; s += 3 {
			for d := 0; d < p; d += 5 {
				h := spec.RingHops(s, d)
				if h < 0 || h > bound {
					return false
				}
				if (s == d) != (h == 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Digits/PM are mutually inverse for arbitrary specs.
func TestQuickDigitsInverse(t *testing.T) {
	f := func(a, b uint8, pRaw uint16) bool {
		spec := MustRingSpec(int(a%5)+1, int(b%7)+1)
		p := int(pRaw) % spec.PMs()
		return spec.PM(spec.Digits(p)) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The pre-closed-form geometry, kept as oracles: RingHops on two digit
// slices and AverageRingHops as the double loop over it.

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

func oracleRingHops(r RingSpec, src, dst int) int {
	if src == dst {
		return 0
	}
	sd := r.Digits(src)
	dd := r.Digits(dst)
	m := 0
	for m < len(sd) && sd[m] == dd[m] {
		m++
	}
	// m is the level of the lowest common ring (digits equal above it).
	L := len(r.Levels)
	hops := 0
	// Ascend from the leaf ring up to (but excluding) level m: on each
	// ring the packet enters at its child slot and exits at the parent
	// IRI slot (index Levels[i], ring size Levels[i]+1).
	for i := L - 1; i > m; i-- {
		hops += mod(r.Levels[i]-sd[i], r.Levels[i]+1)
	}
	// Traverse the common ring from the source-side slot to the
	// destination-side slot.
	size := r.Levels[m]
	if m > 0 {
		size++ // non-global rings also carry a parent-IRI slot
	}
	hops += mod(dd[m]-sd[m], size)
	// Descend: enter each lower ring at its parent slot (index
	// Levels[i]) and exit at the child slot d[i].
	for i := m + 1; i < L; i++ {
		hops += mod(dd[i]-r.Levels[i], r.Levels[i]+1)
	}
	return hops
}

func oracleAverageRingHops(r RingSpec) float64 {
	p := r.PMs()
	if p < 2 {
		return 0
	}
	total := 0
	for s := 0; s < p; s++ {
		for d := 0; d < p; d++ {
			if s != d {
				total += oracleRingHops(r, s, d)
			}
		}
	}
	return float64(total) / float64(p*(p-1))
}

// Every hierarchy the Table 2 search can enumerate up to 128 PMs, plus
// shapes it cannot: a lone ring, 1-child rings, a wide global ring.
func propertySpecs() []RingSpec {
	specs := []RingSpec{MustRingSpec(5), MustRingSpec(2, 1), MustRingSpec(1, 1, 3), MustRingSpec(7, 2, 3)}
	for p := 2; p <= 128; p++ {
		specs = append(specs, EnumerateRingSpecs(p, 4, 3, 12)...)
	}
	return specs
}

func TestClosedFormsMatchOracles(t *testing.T) {
	for _, spec := range propertySpecs() {
		p := spec.PMs()
		for s := 0; s < p; s++ {
			for d := 0; d < p; d++ {
				want := oracleRingHops(spec, s, d)
				if got := spec.RingHops(s, d); got != want {
					t.Fatalf("%s: RingHops(%d,%d) = %d, oracle %d", spec, s, d, got, want)
				}
				if got, want := spec.RoundTripHops(s, d), want+oracleRingHops(spec, d, s); got != want {
					t.Fatalf("%s: RoundTripHops(%d,%d) = %d, want %d", spec, s, d, got, want)
				}
			}
		}
		// Bit-equal, not close: BestRingSpec breaks ties on this float.
		if got, want := spec.AverageRingHops(), oracleAverageRingHops(spec); got != want {
			t.Fatalf("%s: AverageRingHops = %v, oracle %v", spec, got, want)
		}
	}
}

func TestRingHopsDoesNotAllocate(t *testing.T) {
	spec := MustRingSpec(3, 3, 8)
	sink := 0
	if n := testing.AllocsPerRun(100, func() {
		sink += spec.RingHops(5, 70) + spec.RoundTripHops(70, 5)
	}); n != 0 {
		t.Fatalf("RingHops + RoundTripHops allocate %v times per call", n)
	}
}

func TestRingHopsOutOfRangePanics(t *testing.T) {
	spec := MustRingSpec(2, 3)
	for _, pair := range [][2]int{{0, 6}, {6, 0}, {-1, 2}, {2, -1}} {
		for name, hops := range map[string]func(src, dst int) int{
			"RingHops": spec.RingHops, "RoundTripHops": spec.RoundTripHops, "oracle": func(s, d int) int { return oracleRingHops(spec, s, d) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s(%d,%d) did not panic", name, pair[0], pair[1])
					}
				}()
				hops(pair[0], pair[1])
			}()
		}
	}
}

func TestSpecsAreBounded(t *testing.T) {
	for _, levels := range [][]int{
		{1000, 1000, 8},                   // 8 M PMs
		{3037000500, 3037000500},          // product just past 2^63
		{65536, 65536, 65536, 65536},      // product wraps to 0
		{MaxPMs + 1},                      // one PM too many
		{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, // 2048 PMs
	} {
		if _, err := NewRingSpec(levels...); err == nil {
			t.Fatalf("NewRingSpec(%v) accepted", levels)
		}
	}
	for _, levels := range [][]int{{MaxPMs}, {2, 2, 2, 2, 2, 2, 2, 2, 2, 2}, {4, 4, 4, 16}, {MaxPMs, 1, 1}} {
		if _, err := NewRingSpec(levels...); err != nil {
			t.Fatalf("NewRingSpec(%v): %v", levels, err)
		}
	}
	if specs := EnumerateRingSpecs(MaxPMs+1, 1, 3, MaxPMs+1); specs != nil {
		t.Fatalf("EnumerateRingSpecs past MaxPMs = %v", specs)
	}
	if _, err := NewMeshSpec(32); err != nil || MaxPMs != 32*32 {
		t.Fatalf("NewMeshSpec(32): %v (MaxPMs = %d)", err, MaxPMs)
	}
	for _, k := range []int{33, 300, 3037000500, 1 << 62} {
		if _, err := NewMeshSpec(k); err == nil {
			t.Fatalf("NewMeshSpec(%d) accepted", k)
		}
	}
	for _, s := range []string{"1000:1000:8", "3037000500:3037000500", "65536:65536:65536:65536"} {
		if _, err := ParseRingSpec(s); err == nil {
			t.Fatalf("ParseRingSpec(%q) accepted", s)
		}
	}
	if _, err := ParseMeshSpec("300x300"); err == nil {
		t.Fatal(`ParseMeshSpec("300x300") accepted`)
	}
}
