package topo

import (
	"testing"
	"testing/quick"
)

func TestMeshSpecBasics(t *testing.T) {
	m := MustMeshSpec(4)
	if m.PMs() != 16 {
		t.Fatalf("PMs = %d", m.PMs())
	}
	if m.String() != "4x4" {
		t.Fatalf("String = %q", m.String())
	}
	if _, err := NewMeshSpec(0); err == nil {
		t.Fatal("0-side mesh accepted")
	}
}

func TestMeshForPMs(t *testing.T) {
	cases := map[int]int{1: 1, 4: 2, 9: 3, 10: 4, 16: 4, 121: 11}
	for pms, k := range cases {
		if got := MeshForPMs(pms); got.K != k {
			t.Fatalf("MeshForPMs(%d) = %d, want %d", pms, got.K, k)
		}
	}
	if !Square(49) || Square(50) {
		t.Fatal("Square wrong")
	}
}

func TestCoordIDRoundTrip(t *testing.T) {
	m := MustMeshSpec(5)
	for id := 0; id < m.PMs(); id++ {
		x, y := m.Coord(id)
		if m.ID(x, y) != id {
			t.Fatalf("round trip failed for %d", id)
		}
	}
	// Row-major.
	if x, y := m.Coord(7); x != 2 || y != 1 {
		t.Fatalf("Coord(7) = (%d,%d)", x, y)
	}
}

func TestHopDistance(t *testing.T) {
	m := MustMeshSpec(4)
	if m.HopDistance(0, 15) != 6 {
		t.Fatalf("corner distance = %d", m.HopDistance(0, 15))
	}
	if m.HopDistance(5, 5) != 0 {
		t.Fatal("self distance nonzero")
	}
	if m.HopDistance(0, 1) != 1 || m.HopDistance(0, 4) != 1 {
		t.Fatal("adjacent distance wrong")
	}
}

func TestNeighbors(t *testing.T) {
	m := MustMeshSpec(3)
	center := m.ID(1, 1)
	if m.Neighbor(center, North) != m.ID(1, 0) {
		t.Fatal("north neighbour wrong")
	}
	if m.Neighbor(center, South) != m.ID(1, 2) {
		t.Fatal("south neighbour wrong")
	}
	if m.Neighbor(center, East) != m.ID(2, 1) {
		t.Fatal("east neighbour wrong")
	}
	if m.Neighbor(center, West) != m.ID(0, 1) {
		t.Fatal("west neighbour wrong")
	}
	// Edges: no end-around connections.
	if m.Neighbor(m.ID(0, 0), North) != -1 || m.Neighbor(m.ID(0, 0), West) != -1 {
		t.Fatal("mesh should have no wraparound")
	}
	if m.Neighbor(m.ID(2, 2), South) != -1 || m.Neighbor(m.ID(2, 2), East) != -1 {
		t.Fatal("mesh should have no wraparound at far corner")
	}
}

func TestOpposite(t *testing.T) {
	pairs := [][2]Direction{{North, South}, {East, West}}
	for _, p := range pairs {
		if p[0].Opposite() != p[1] || p[1].Opposite() != p[0] {
			t.Fatalf("opposite of %v/%v wrong", p[0], p[1])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Opposite(Local) did not panic")
		}
	}()
	Local.Opposite()
}

func TestRouteIsXFirst(t *testing.T) {
	m := MustMeshSpec(4)
	// From (0,0) to (2,3): must move East until x matches.
	src, dst := m.ID(0, 0), m.ID(2, 3)
	if m.Route(src, dst) != East {
		t.Fatal("e-cube must correct X first")
	}
	// Once x matches, move in Y.
	if m.Route(m.ID(2, 0), dst) != South {
		t.Fatal("e-cube must correct Y second")
	}
	if m.Route(dst, dst) != Local {
		t.Fatal("arrived packet should eject")
	}
}

// ecubePath follows Route hop by hop from src to dst and returns the
// PM ids visited, inclusive of both endpoints.
func ecubePath(m MeshSpec, src, dst int) []int {
	path := []int{src}
	for cur := src; cur != dst; {
		cur = m.Neighbor(cur, m.Route(cur, dst))
		path = append(path, cur)
	}
	return path
}

func TestPathLengthMatchesDistance(t *testing.T) {
	m := MustMeshSpec(5)
	for src := 0; src < m.PMs(); src += 3 {
		for dst := 0; dst < m.PMs(); dst += 2 {
			path := ecubePath(m, src, dst)
			if len(path)-1 != m.HopDistance(src, dst) {
				t.Fatalf("path %d->%d has %d links, want %d",
					src, dst, len(path)-1, m.HopDistance(src, dst))
			}
			if path[0] != src || path[len(path)-1] != dst {
				t.Fatal("path endpoints wrong")
			}
		}
	}
}

func TestDirectionString(t *testing.T) {
	if North.String() != "north" || Local.String() != "local" {
		t.Fatal("direction names wrong")
	}
	if Direction(9).String() == "" {
		t.Fatal("unknown direction should render")
	}
}

// Property: the e-cube path never moves away from the destination
// (each step decreases Manhattan distance by exactly one) and turns at
// most once.
func TestQuickEcubeMinimal(t *testing.T) {
	f := func(kRaw, sRaw, dRaw uint8) bool {
		k := int(kRaw%6) + 2
		m := MustMeshSpec(k)
		src := int(sRaw) % m.PMs()
		dst := int(dRaw) % m.PMs()
		path := ecubePath(m, src, dst)
		turns := 0
		var lastDir Direction = -1
		for i := 0; i+1 < len(path); i++ {
			if m.HopDistance(path[i+1], dst) != m.HopDistance(path[i], dst)-1 {
				return false
			}
			d := m.Route(path[i], dst)
			if lastDir >= 0 && d != lastDir {
				turns++
			}
			lastDir = d
		}
		return turns <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
