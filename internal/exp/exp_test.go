package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	goflag "flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ringmesh/internal/core"
)

// tinySpec keeps unit-test experiment runs fast.
func tinySpec() Spec {
	return Spec{
		Seed:    1,
		Run:     core.RunConfig{WarmupCycles: 200, BatchCycles: 200, Batches: 2},
		Workers: 2,
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "fig20", "fig21",
	}
	have := map[string]bool{}
	for _, e := range All() {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
}

func mustByID(t *testing.T, id string) Experiment {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("%s missing", id)
	}
	return e
}

func TestByID(t *testing.T) {
	e, ok := ByID("fig6")
	if !ok || e.ID != "fig6" || e.curves == nil {
		t.Fatal("ByID(fig6) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id found")
	}
}

func TestAllCopies(t *testing.T) {
	a := All()
	if len(a) != len(registry) {
		t.Fatal("All() size mismatch")
	}
	a[0] = Experiment{}
	if registry[0].ID == "" {
		t.Fatal("All() aliases the registry")
	}
}

func TestTable1(t *testing.T) {
	out, err := mustByID(t, "table1").Run(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) == 0 || len(out.Tables[0].Rows) != 8 {
		t.Fatalf("table1 rows = %v", out.Tables)
	}
	// Paper values: ring 128B line = 144 bytes; mesh 1-flit = 16.
	foundRing144, foundMesh16 := false, false
	for _, row := range out.Tables[0].Rows {
		if row[0] == "ring (128b)" && row[1] == "128B" && row[2] == "144" {
			foundRing144 = true
		}
		if row[0] == "mesh (32b)" && row[5] == "16" {
			foundMesh16 = true
		}
	}
	if !foundRing144 || !foundMesh16 {
		t.Fatalf("table1 values do not match the paper: %+v", out.Tables[0].Rows)
	}
}

func TestTable2MatchesPaperMostly(t *testing.T) {
	out, err := mustByID(t, "table2").Run(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != 2 {
		t.Fatalf("tables = %d", len(out.Tables))
	}
	// Agreement row like "32 / 40": require at least half to match
	// exactly (the paper's tie-break among same-depth hierarchies is
	// unstated).
	cell := out.Tables[1].Rows[0][1]
	var match, total int
	if _, err := fmtSscanf(cell, &match, &total); err != nil {
		t.Fatalf("cannot parse agreement %q: %v", cell, err)
	}
	if total < 30 {
		t.Fatalf("only %d comparable entries", total)
	}
	if match*2 < total {
		t.Fatalf("too few exact matches with the paper: %s", cell)
	}
}

func fmtSscanf(cell string, match, total *int) (int, error) {
	n, err := sscanf2(cell, match, total)
	return n, err
}

func sscanf2(cell string, a, b *int) (int, error) {
	parts := strings.Split(cell, "/")
	if len(parts) != 2 {
		return 0, errParse
	}
	var err error
	*a, err = atoiTrim(parts[0])
	if err != nil {
		return 0, err
	}
	*b, err = atoiTrim(parts[1])
	if err != nil {
		return 1, err
	}
	return 2, nil
}

var errParse = &parseErr{}

type parseErr struct{}

func (*parseErr) Error() string { return "parse error" }

func atoiTrim(s string) (int, error) {
	s = strings.TrimSpace(s)
	n := 0
	if s == "" {
		return 0, errParse
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, errParse
		}
		n = n*10 + int(r-'0')
	}
	return n, nil
}

var update = goflag.Bool("update", false, "re-record testdata/*.golden (tiny.golden: full pass only)")

// artifactDigest is the SHA-256 of an output's text and CSV renderings,
// the two files cmd/experiments writes per experiment.
func artifactDigest(t *testing.T, out Output) string {
	t.Helper()
	h := sha256.New()
	if err := WriteText(h, out); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(h, out); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Each experiment runs end to end at tiny scale, produces non-empty,
// ordered series, and renders byte for byte what testdata/tiny.golden
// recorded (one "id sha256" line per experiment, in registry order).
func TestFiguresRunTiny(t *testing.T) {
	ids := []string{"fig7", "fig13", "fig15"}
	if !testing.Short() {
		// The full registry at tiny scale; a couple of minutes of CPU,
		// skipped under -short.
		ids = nil
		for _, e := range All() {
			ids = append(ids, e.ID)
		}
	}
	const goldenPath = "testdata/tiny.golden"
	golden := map[string]string{}
	if raw, err := os.ReadFile(goldenPath); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			if id, sum, ok := strings.Cut(line, " "); ok {
				golden[id] = sum
			}
		}
	} else if !*update {
		t.Fatal(err)
	}
	var recorded strings.Builder
	for _, id := range ids {
		e := mustByID(t, id)
		out, err := e.Run(tinySpec())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out.Series) == 0 && e.curves != nil {
			t.Fatalf("%s produced no series", id)
		}
		for _, s := range out.Series {
			if len(s.Points) == 0 {
				t.Fatalf("%s series %q empty", id, s.Label)
			}
			for i := 1; i < len(s.Points); i++ {
				if s.Points[i].X <= s.Points[i-1].X {
					t.Fatalf("%s series %q not sorted by X", id, s.Label)
				}
			}
		}
		if out.Title == "" || out.Caption == "" {
			t.Fatalf("%s missing metadata", id)
		}
		sum := artifactDigest(t, out)
		fmt.Fprintf(&recorded, "%s %s\n", id, sum)
		if !*update && sum != golden[id] {
			t.Errorf("%s: artifact digest %s, golden %s", id, sum, golden[id])
		}
	}
	if *update && !testing.Short() {
		if err := os.WriteFile(goldenPath, []byte(recorded.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// Two curves over the same points run each point once: fig8 plots the
// global and the local utilization of 4 line sizes x 5 two-level
// systems, 40 points from 20 simulations, scheduled series-major.
func TestRunSimulatesSharedPointsOnce(t *testing.T) {
	curves := mustByID(t, "fig8").curves()
	points := 0
	for _, c := range curves {
		points += len(c.points)
	}
	cfgs, slot := distinctConfigs(curves)
	if points != 40 || len(cfgs) != 20 {
		t.Fatalf("fig8: %d points over %d systems, want 40 over 20", points, len(cfgs))
	}
	for i, c := range curves {
		for j, p := range c.points {
			if want := i/2*5 + j; slot[p.cfg] != want {
				t.Fatalf("curve %q point %d runs in slot %d, want %d", c.label, j, slot[p.cfg], want)
			}
		}
	}
}

func TestCrossoverHelper(t *testing.T) {
	ring := Series{Points: []Point{{X: 4, Y: 10}, {X: 16, Y: 40}, {X: 64, Y: 200}}}
	mesh := Series{Points: []Point{{X: 4, Y: 30}, {X: 16, Y: 45}, {X: 64, Y: 90}}}
	x := crossover(ring, mesh)
	if x < 16 || x > 64 {
		t.Fatalf("crossover = %v, want within (16,64)", x)
	}
	// No crossover when mesh is always slower.
	slow := Series{Points: []Point{{X: 4, Y: 100}, {X: 64, Y: 500}}}
	if crossover(ring, slow) != 0 {
		t.Fatal("phantom crossover")
	}
}

func TestInterpAt(t *testing.T) {
	s := Series{Points: []Point{{X: 0, Y: 0}, {X: 10, Y: 100}}}
	if y, ok := interpAt(s, 5); !ok || y != 50 {
		t.Fatalf("interp = %v %v", y, ok)
	}
	if _, ok := interpAt(s, 20); ok {
		t.Fatal("out-of-range interpolation succeeded")
	}
}

func TestSweepTopologyForWidensBranching(t *testing.T) {
	// 120 PMs at 32B lines has no <=3-branching hierarchy; the sweep
	// helper must widen the bound rather than fail.
	spec, err := sweepTopologyFor(120, 32)
	if err != nil {
		t.Fatal(err)
	}
	if spec.PMs() != 120 {
		t.Fatalf("got %v", spec)
	}
	if _, err := sweepTopologyFor(113, 32); err == nil {
		t.Fatal("prime size beyond leaf capacity should fail")
	}
}

func TestRenderText(t *testing.T) {
	out := Output{
		ID: "x", Title: "T", Caption: "A caption that should wrap nicely over the line width limit to exercise writeWrapped.",
		XLabel: "nodes", YLabel: "latency",
		Series: []Series{{Label: "s1", Points: []Point{{X: 4, Y: 10.5, CI: 1.2}, {X: 8, Y: 22, Saturated: true}}}},
		Tables: []Table{{Title: "tab", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}},
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, out); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"== x: T ==", "s1", "10.5", "(saturated)", "tab", "±1.2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered text missing %q:\n%s", want, s)
		}
	}
}

func TestRenderCSV(t *testing.T) {
	out := Output{
		Series: []Series{{Label: "s", Points: []Point{{X: 1, Y: 2, CI: 0.5}}}},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, out); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "series,x,y,ci,saturated,stalled") || !strings.Contains(s, "s,1,2,0.5,false,false") {
		t.Fatalf("csv output wrong:\n%s", s)
	}
}

func TestRingLadders(t *testing.T) {
	for _, line := range lineSizes {
		l := ringLadder(line)
		if len(l) == 0 {
			t.Fatalf("no ladder for %dB", line)
		}
		for _, n := range l {
			if _, err := sweepTopologyFor(n, line); err != nil {
				t.Errorf("ladder size %d@%dB has no topology: %v", n, line, err)
			}
		}
	}
	if ringLadder(48) != nil {
		t.Fatal("unknown line size should return nil ladder")
	}
}

func TestFlagStrings(t *testing.T) {
	if flag(Point{}) != "" || flag(Point{Saturated: true}) != " (saturated)" || flag(Point{Stalled: true}) != " (stalled)" {
		t.Fatal("flag rendering wrong")
	}
}
