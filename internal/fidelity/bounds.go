package fidelity

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"ringmesh/internal/network"
)

// boundsCSV is the recorded analytic-vs-simulate validation table,
// embedded so the daemon can attach error bounds at runtime without
// a working directory dependency. The canonical human-facing copy is
// results/analytic-bounds.csv; TestBoundsFilesIdentical pins the two
// byte-identical, and the harness in fidelity_test.go regenerates
// both (FIDELITY_RECORD=1) and enforces the gated rows otherwise.
//
//go:embed analytic-bounds.csv
var boundsCSV string

// BoundRow is one validation measurement: both backends run on one
// (config, load) point and the observed relative latency error. Rows
// with Gate set additionally carry the enforced bound — the harness
// fails if a fresh run drifts past it. Ungated rows document how the
// zero-load model degrades as load rises; they are recorded, not
// enforced, and serving answers never cite them.
type BoundRow struct {
	Network     string
	Topology    string
	LineBytes   int
	BufferFlits int
	C           float64
	Analytic    float64
	Simulated   float64
	RelErr      float64
	Gate        bool
	Bound       float64
}

// Bound is the error envelope a serving layer attaches to an
// analytic-labeled answer.
type Bound struct {
	// MaxRelErr is the recorded worst-case relative latency error of
	// the analytic backend against the simulator at low load.
	MaxRelErr float64
	// Basis says what the bound was recorded against, for humans.
	Basis string
}

var (
	boundsOnce sync.Once
	boundsRows []BoundRow
	boundsErr  error
)

// Bounds returns the embedded validation table.
func Bounds() ([]BoundRow, error) {
	boundsOnce.Do(func() {
		boundsRows, boundsErr = ParseBounds(boundsCSV)
	})
	return boundsRows, boundsErr
}

// ParseBounds decodes the analytic-bounds CSV format (see
// FormatBounds for the writer).
func ParseBounds(data string) ([]BoundRow, error) {
	var rows []BoundRow
	for i, line := range strings.Split(strings.TrimSpace(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "network,") {
			continue
		}
		f := strings.Split(line, ",")
		if len(f) != 10 {
			return nil, fmt.Errorf("fidelity: bounds line %d: want 10 fields, got %d", i+1, len(f))
		}
		var (
			r   BoundRow
			err error
		)
		r.Network, r.Topology = f[0], f[1]
		if r.LineBytes, err = strconv.Atoi(f[2]); err == nil {
			if r.BufferFlits, err = strconv.Atoi(f[3]); err == nil {
				if r.C, err = strconv.ParseFloat(f[4], 64); err == nil {
					if r.Analytic, err = strconv.ParseFloat(f[5], 64); err == nil {
						if r.Simulated, err = strconv.ParseFloat(f[6], 64); err == nil {
							if r.RelErr, err = strconv.ParseFloat(f[7], 64); err == nil {
								r.Bound, err = strconv.ParseFloat(f[9], 64)
							}
						}
					}
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("fidelity: bounds line %d: %v", i+1, err)
		}
		r.Gate = f[8] == "1"
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("fidelity: bounds table is empty")
	}
	return rows, nil
}

// FormatBounds renders rows in the analytic-bounds CSV format, the
// inverse of ParseBounds.
func FormatBounds(rows []BoundRow) string {
	var b strings.Builder
	b.WriteString("# Analytic-vs-simulate validation: recorded per-config error bounds.\n")
	b.WriteString("# Regenerate with: FIDELITY_RECORD=1 go test ./internal/fidelity -run TestAnalyticWithinRecordedBounds\n")
	b.WriteString("# gate=1 rows are enforced by that test; bound is the admitted relative latency error.\n")
	b.WriteString("network,topology,line_bytes,buffer_flits,c,analytic_latency,sim_latency,rel_err,gate,bound\n")
	for _, r := range rows {
		gate := "0"
		if r.Gate {
			gate = "1"
		}
		fmt.Fprintf(&b, "%s,%s,%d,%d,%g,%.4f,%.4f,%.6f,%s,%.4f\n",
			r.Network, r.Topology, r.LineBytes, r.BufferFlits, r.C,
			r.Analytic, r.Simulated, r.RelErr, gate, r.Bound)
	}
	return b.String()
}

// BoundFor returns the recorded error bound for a configuration, or
// not found when it does not resolve or its family has no validated
// rows (third-party networks are never analytically answerable
// anyway). Estimate attaches the same bound to every answer; this
// wrapper serves callers that hold a configuration but no estimate.
func BoundFor(networkName string, cfg network.Config) (Bound, bool) {
	plan, err := network.New(networkName, cfg)
	if err != nil {
		return Bound{}, false
	}
	b := boundFor(plan, cfg)
	if b == nil {
		return Bound{}, false
	}
	return *b, true
}

// boundFor looks a resolved geometry up in the validation table: the
// gated row matching it exactly when one exists, else the worst gated
// bound across its network family (conservative — the family-wide
// envelope always covers the per-config one), else nil.
func boundFor(plan *network.Plan, cfg network.Config) *Bound {
	rows, err := Bounds()
	if err != nil {
		return nil
	}
	var (
		familyMax  float64
		familyRows int
	)
	for _, r := range rows {
		if !r.Gate || r.Network != plan.Name {
			continue
		}
		// Mesh buffer depth changes the round-trip formula, so it joins
		// the exact match; rings ignore BufferFlits entirely (exactly as
		// CacheKey zeroes it).
		exact := r.Topology == plan.Topology && r.LineBytes == cfg.LineBytes &&
			(plan.Name != "mesh" || r.BufferFlits == cfg.BufferFlits)
		if exact {
			return &Bound{
				MaxRelErr: r.Bound,
				Basis: fmt.Sprintf("low-load validation of %s %s @%dB (C=%g)",
					r.Network, r.Topology, r.LineBytes, r.C),
			}
		}
		if r.Bound > familyMax {
			familyMax = r.Bound
		}
		familyRows++
	}
	if familyRows == 0 {
		return nil
	}
	return &Bound{
		MaxRelErr: familyMax,
		Basis: fmt.Sprintf("worst case over %d validated %s configs at low load",
			familyRows, plan.Name),
	}
}
