package topo

import (
	"fmt"
	"strconv"
	"strings"
)

// MeshSpec describes a square 2D bi-directional mesh of K x K
// processing modules with no end-around connections (paper Section
// 2.2). PM ids are row-major: id = y*K + x.
type MeshSpec struct {
	K int
}

// NewMeshSpec returns a validated spec for a k x k mesh of at most
// MaxPMs PMs.
func NewMeshSpec(k int) (MeshSpec, error) {
	if k < 1 {
		return MeshSpec{}, fmt.Errorf("topo: mesh side %d < 1", k)
	}
	if k > MaxPMs/k {
		return MeshSpec{}, fmt.Errorf("topo: mesh %dx%d exceeds %d PMs", k, k, MaxPMs)
	}
	return MeshSpec{K: k}, nil
}

// MustMeshSpec is NewMeshSpec that panics on error.
func MustMeshSpec(k int) MeshSpec {
	m, err := NewMeshSpec(k)
	if err != nil {
		panic(err)
	}
	return m
}

// ParseMeshSpec parses the "KxK" notation produced by String.
func ParseMeshSpec(s string) (MeshSpec, error) {
	parts := strings.Split(s, "x")
	if len(parts) != 2 {
		return MeshSpec{}, fmt.Errorf("topo: bad mesh spec %q (want \"KxK\")", s)
	}
	a, errA := strconv.Atoi(parts[0])
	b, errB := strconv.Atoi(parts[1])
	if errA != nil || errB != nil {
		return MeshSpec{}, fmt.Errorf("topo: bad mesh spec %q (want \"KxK\")", s)
	}
	if a != b {
		return MeshSpec{}, fmt.Errorf("topo: mesh spec %q is not square", s)
	}
	return NewMeshSpec(a)
}

// MeshForPMs returns the smallest square mesh holding at least pms
// PMs. The paper only evaluates perfectly square systems (4, 9, 16,
// ... 121); exact reproduces require pms to be a perfect square, which
// Square reports.
func MeshForPMs(pms int) MeshSpec {
	k := 1
	for k*k < pms {
		k++
	}
	return MeshSpec{K: k}
}

// Square reports whether pms is a perfect square (a paper-style mesh
// size).
func Square(pms int) bool {
	m := MeshForPMs(pms)
	return m.K*m.K == pms
}

// PMs returns the number of processing modules.
func (m MeshSpec) PMs() int { return m.K * m.K }

// String renders the spec, e.g. "8x8".
func (m MeshSpec) String() string { return fmt.Sprintf("%dx%d", m.K, m.K) }

// Coord returns the (x, y) position of PM id.
func (m MeshSpec) Coord(id int) (x, y int) {
	if id < 0 || id >= m.PMs() {
		panic(fmt.Sprintf("topo: PM %d out of range [0,%d)", id, m.PMs()))
	}
	return id % m.K, id / m.K
}

// ID returns the PM id at (x, y).
func (m MeshSpec) ID(x, y int) int {
	if x < 0 || x >= m.K || y < 0 || y >= m.K {
		panic(fmt.Sprintf("topo: coordinate (%d,%d) out of range", x, y))
	}
	return y*m.K + x
}

// HopDistance returns the Manhattan distance between two PMs, which is
// the e-cube path length in links (one direction).
func (m MeshSpec) HopDistance(a, b int) int {
	ax, ay := m.Coord(a)
	bx, by := m.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

// Direction identifies a mesh router port.
type Direction int

// Router ports: the four neighbours plus the local PM port.
const (
	North Direction = iota
	South
	East
	West
	Local
	NumPorts
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case North:
		return "north"
	case South:
		return "south"
	case East:
		return "east"
	case West:
		return "west"
	case Local:
		return "local"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Opposite returns the facing port on the neighbouring router: a flit
// leaving East arrives on the neighbour's West input.
func (d Direction) Opposite() Direction {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	default:
		panic("topo: Opposite of non-cardinal direction")
	}
}

// Neighbor returns the PM id adjacent to id in direction d, or -1 when
// the edge of the mesh lies that way. North decreases y.
func (m MeshSpec) Neighbor(id int, d Direction) int {
	x, y := m.Coord(id)
	switch d {
	case North:
		y--
	case South:
		y++
	case East:
		x++
	case West:
		x--
	default:
		panic("topo: Neighbor of non-cardinal direction")
	}
	if x < 0 || x >= m.K || y < 0 || y >= m.K {
		return -1
	}
	return m.ID(x, y)
}

// Route returns the e-cube (dimension-order, X then Y) output port a
// packet at current should take toward dst; Local when current == dst.
// Deterministic dimension-order routing on a mesh without end-around
// links is deadlock-free without virtual channels, which is why the
// paper chose this topology.
func (m MeshSpec) Route(current, dst int) Direction {
	cx, cy := m.Coord(current)
	dx, dy := m.Coord(dst)
	return ECube(cx, cy, dx, dy)
}

// ECube is Route on coordinates: the output port at (cx, cy) toward
// (dx, dy). The mesh model calls it with positions fixed at build time.
func ECube(cx, cy, dx, dy int) Direction {
	switch {
	case dx > cx:
		return East
	case dx < cx:
		return West
	case dy > cy:
		return South
	case dy < cy:
		return North
	default:
		return Local
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
