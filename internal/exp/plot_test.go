package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// plotFixture is a fixed two-series output: curves of different
// lengths, a shared point, and a y range that does not start at zero.
func plotFixture() Output {
	return Output{
		ID: "figX", Title: "latency vs system size",
		XLabel: "PMs", YLabel: "latency (cycles)",
		Series: []Series{
			{Label: "ring", Points: []Point{{X: 4, Y: 31.5}, {X: 8, Y: 38.2}, {X: 16, Y: 52.9}, {X: 32, Y: 77.4}, {X: 64, Y: 140.6}}},
			{Label: "mesh", Points: []Point{{X: 4, Y: 36.1}, {X: 16, Y: 47.3}, {X: 36, Y: 58.8}, {X: 64, Y: 71.0}}},
		},
	}
}

// The chart cmd/experiments -plot prints, pinned byte for byte.
func TestPlotGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePlot(&buf, plotFixture()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "plot.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chart changed\n got:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func writePlot(t *testing.T, out Output) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePlot(&buf, out); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestWritePlotBasics(t *testing.T) {
	out := writePlot(t, plotFixture())
	if !strings.HasPrefix(out, "figX: latency vs system size\n") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "ring") || !strings.Contains(out, "mesh") {
		t.Fatal("missing legend entries")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatal("missing series markers")
	}
	if !strings.Contains(out, "(PMs)") {
		t.Fatal("missing x label")
	}
	// Title, 22 plot rows, two axis rows and a two-line legend.
	if lines := strings.Count(out, "\n"); lines != 27 {
		t.Fatalf("%d lines, want 27", lines)
	}
}

func TestWritePlotEmpty(t *testing.T) {
	out := writePlot(t, Output{ID: "e", Series: []Series{{Label: "none"}}})
	if !strings.Contains(out, "no data") {
		t.Fatalf("empty render = %q", out)
	}
}

func TestWritePlotSinglePoint(t *testing.T) {
	out := writePlot(t, Output{ID: "p", Series: []Series{{Label: "p", Points: []Point{{X: 5, Y: 7}}}}})
	if !strings.Contains(out, "*") {
		t.Fatal("single point not drawn")
	}
}
