package exp

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteText renders an experiment's output as aligned plain text.
func WriteText(w io.Writer, out Output) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", out.ID, out.Title); err != nil {
		return err
	}
	if out.Caption != "" {
		if err := writeWrapped(w, out.Caption, 78); err != nil {
			return err
		}
	}
	for _, s := range out.Series {
		if _, err := fmt.Fprintf(w, "\n-- %s  [%s vs %s]\n", s.Label, out.YLabel, out.XLabel); err != nil {
			return err
		}
		for _, p := range s.Points {
			ci := ""
			if p.CI > 0 && p.CI < 1e18 {
				ci = fmt.Sprintf(" ±%.1f", p.CI)
			}
			if _, err := fmt.Fprintf(w, "   %6.0f  %10.1f%s%s\n", p.X, p.Y, ci, flag(p)); err != nil {
				return err
			}
		}
	}
	for _, t := range out.Tables {
		if err := writeTable(w, t); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func writeWrapped(w io.Writer, text string, width int) error {
	words := strings.Fields(text)
	line := ""
	for _, word := range words {
		if line != "" && len(line)+1+len(word) > width {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
			line = word
			continue
		}
		if line == "" {
			line = word
		} else {
			line += " " + word
		}
	}
	if line != "" {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

func writeTable(w io.Writer, t Table) error {
	if _, err := fmt.Fprintf(w, "\n-- %s\n", t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return "   " + strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(rule)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

// WriteCSV renders every series of an output as CSV rows:
// series,x,y,ci,saturated,stalled.
func WriteCSV(w io.Writer, out Output) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "x", "y", "ci", "saturated", "stalled"}); err != nil {
		return err
	}
	for _, s := range out.Series {
		for _, p := range s.Points {
			rec := []string{
				s.Label,
				strconv.FormatFloat(p.X, 'g', -1, 64),
				strconv.FormatFloat(p.Y, 'g', -1, 64),
				strconv.FormatFloat(p.CI, 'g', 6, 64),
				strconv.FormatBool(p.Saturated),
				strconv.FormatBool(p.Stalled),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// The chart's plot area in characters, and the markers that tell up to
// eight series apart.
const plotWidth, plotHeight = 72, 22

var plotMarkers = []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// WritePlot draws an output's series as one ASCII line chart, so a
// figure can be eyeballed in a terminal without a plotting dependency.
// The y axis starts at zero; where two series meet, the later one's
// marker shows.
func WritePlot(w io.Writer, out Output) error {
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	pts := 0
	for _, s := range out.Series {
		for _, p := range s.Points {
			xmin, xmax = math.Min(xmin, p.X), math.Max(xmax, p.X)
			ymin, ymax = math.Min(ymin, p.Y), math.Max(ymax, p.Y)
			pts++
		}
	}
	if pts == 0 {
		_, err := fmt.Fprintln(w, "(no data)")
		return err
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	ymin = math.Min(ymin, 0)

	grid := make([][]byte, plotHeight)
	for r := range grid {
		grid[r] = bytes.Repeat([]byte{' '}, plotWidth)
	}
	for si, s := range out.Series {
		for _, p := range s.Points {
			cx := int((p.X - xmin) / (xmax - xmin) * (plotWidth - 1))
			row := plotHeight - 1 - int((p.Y-ymin)/(ymax-ymin)*(plotHeight-1))
			if row >= 0 && row < plotHeight && cx >= 0 && cx < plotWidth {
				grid[row][cx] = plotMarkers[si%len(plotMarkers)]
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", out.ID, out.Title)
	for r, row := range grid {
		fmt.Fprintf(&b, "%8.1f |%s\n", ymax-(ymax-ymin)*float64(r)/(plotHeight-1), row)
	}
	fmt.Fprintf(&b, "%8s +%s\n", "", strings.Repeat("-", plotWidth))
	left, right := fmt.Sprintf("%.0f", xmin), fmt.Sprintf("%.0f", xmax)
	if out.XLabel != "" {
		right += " (" + out.XLabel + ")"
	}
	gap := max(plotWidth-len(left)-len(right), 1)
	fmt.Fprintf(&b, "%8s  %s%s%s\n", "", left, strings.Repeat(" ", gap), right)
	for si, s := range out.Series {
		fmt.Fprintf(&b, "%10c %s\n", plotMarkers[si%len(plotMarkers)], s.Label)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
