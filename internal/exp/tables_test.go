package exp

import (
	"strings"
	"testing"

	"ringmesh/internal/core"
)

type coreResult = core.Result

func TestSustainableTable(t *testing.T) {
	series := []Series{{
		Label: "s",
		Points: []Point{
			{X: 4, Y: 10}, {X: 8, Y: 12}, {X: 12, Y: 14},
			{X: 16, Y: 40},                  // beyond 1.5x of 10
			{X: 24, Y: 13, Saturated: true}, // within bound but flagged
		},
	}}
	tab := sustainableTable(series)
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][1] != "12" {
		t.Fatalf("sustainable = %s, want 12", tab.Rows[0][1])
	}
	// Empty series contribute no row.
	if got := sustainableTable([]Series{{Label: "empty"}}); len(got.Rows) != 0 {
		t.Fatal("empty series produced a row")
	}
}

func TestGrowthTable(t *testing.T) {
	series := []Series{
		{Label: "g", Points: []Point{{X: 4, Y: 50}, {X: 121, Y: 250}}},
		{Label: "zero", Points: []Point{{X: 4, Y: 0}, {X: 121, Y: 10}}},
		{Label: "short", Points: []Point{{X: 4, Y: 5}}},
	}
	tab := growthTable(series)
	// Zero baseline and single-point series are skipped.
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d: %v", len(tab.Rows), tab.Rows)
	}
	if !strings.HasPrefix(tab.Rows[0][1], "5.0x") {
		t.Fatalf("growth = %s, want 5.0x...", tab.Rows[0][1])
	}
}

func TestCrossoverTable(t *testing.T) {
	series := []Series{
		{Label: "ring", Points: []Point{{X: 4, Y: 10}, {X: 64, Y: 300}}},
		{Label: "mesh a", Points: []Point{{X: 4, Y: 50}, {X: 64, Y: 100}}},
		{Label: "ring2", Points: []Point{{X: 4, Y: 10}, {X: 64, Y: 20}}},
		{Label: "mesh b", Points: []Point{{X: 4, Y: 50}, {X: 64, Y: 90}}},
	}
	tab := crossoverTable(" note")(series)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][1] == "none up to 121" {
		t.Fatal("first pair should cross")
	}
	if tab.Rows[1][1] != "none up to 121" {
		t.Fatalf("second pair should not cross: %s", tab.Rows[1][1])
	}
	if !strings.Contains(tab.Title, "note") {
		t.Fatal("note missing from title")
	}
}

func TestRatioTable(t *testing.T) {
	tab := ratioTable([]Series{
		{Label: "ring", Points: []Point{{X: 4, Y: 10}, {X: 16, Y: 20}}},
		{Label: "mesh", Points: []Point{{X: 4, Y: 20}, {X: 16, Y: 40}}},
	})
	if len(tab.Rows) != 1 || tab.Rows[0][1] != "2.00" {
		t.Fatalf("ratio rows = %v", tab.Rows)
	}
}

func TestBufferLabel(t *testing.T) {
	if bufferLabel(0) != "cl-sized" || bufferLabel(4) != "4-flit" {
		t.Fatal("buffer labels wrong")
	}
}

func TestSpecsForSizesDropsImpossible(t *testing.T) {
	// 113 is prime and beyond any leaf capacity: dropped silently.
	specs := specsForSizes(32, []int{8, 113, 24})
	if len(specs) != 2 {
		t.Fatalf("specs = %v", specs)
	}
}

func TestUtilMetrics(t *testing.T) {
	r := resultWithUtil([]float64{0.5, 0.25, 0.125})
	if y := utilMetric(0)(r); y != 50 {
		t.Fatalf("global util = %v", y)
	}
	if y := localUtilMetric(r); y != 12.5 {
		t.Fatalf("local util = %v", y)
	}
	// Out-of-range level yields zero, not a panic.
	if y := utilMetric(9)(r); y != 0 {
		t.Fatalf("missing level util = %v", y)
	}
	if y := meshUtilMetric(resultWithMeshUtil(0.4)); y != 40 {
		t.Fatalf("mesh util = %v", y)
	}
}

func TestThreeAndTwoLevelSweeps(t *testing.T) {
	for _, line := range lineSizes {
		for _, ts := range threeLevelSweep(line) {
			if ts.NumLevels() != 3 || ts.PMs() > 121 {
				t.Fatalf("bad 3-level sweep entry %v", ts)
			}
		}
		for _, ts := range twoLevelSweep(line) {
			if ts.NumLevels() != 2 {
				t.Fatalf("bad 2-level sweep entry %v", ts)
			}
		}
	}
}

// resultWithUtil builds a core.Result carrying ring utilizations.
func resultWithUtil(u []float64) (r coreResult) {
	r.RingUtil = u
	return r
}

func resultWithMeshUtil(u float64) (r coreResult) {
	r.MeshUtil = u
	return r
}
