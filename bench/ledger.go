package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// endToEndMetric declares one end-to-end metric and the share of the
// parent's median by which it may worsen before a change is rejected.
type endToEndMetric struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is BENCHMARK.json's end_to_end list. Host time throughout;
// the PM-cycles in pmcycles_per_s are simulated, the seconds are not.
var endToEnd = []endToEndMetric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"pmcycles_per_s", "PM-cycles/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_tail", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// fingerprint identifies the machine class a ledger row was measured
// on. Rows with different fingerprints are never compared.
type fingerprint struct {
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func thisMachine() fingerprint {
	fp := fingerprint{
		Go:         runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// series is one metric's readings, one per set.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// ledger is one committed row of the perf record: every end-to-end and
// per-layer number of one commit on one machine.
type ledger struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seed        uint64      `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Sets        int         `json:"sets"`
	// EndToEnd is workload -> metric -> readings (set i ran at Seed+i).
	EndToEnd map[string]map[string]*series `json:"end_to_end"`
	// Outputs is workload -> set -> key -> simulated output.
	Outputs map[string][]map[string]string `json:"outputs"`
	// PerLayer is the probes' numbers; Traced is workload -> metric.
	PerLayer map[string]*series            `json:"per_layer,omitempty"`
	Traced   map[string]map[string]*series `json:"traced,omitempty"`
}

func newLedger(seed uint64, seconds float64) *ledger {
	return &ledger{
		Fingerprint: thisMachine(), Seed: seed, Seconds: seconds,
		EndToEnd: map[string]map[string]*series{},
		Outputs:  map[string][]map[string]string{},
		PerLayer: map[string]*series{},
		Traced:   map[string]map[string]*series{},
	}
}

func addTo(m map[string]*series, name string, v metricValue) {
	s := m[name]
	if s == nil {
		s = &series{Unit: v.Unit}
		m[name] = s
	}
	s.Values = append(s.Values, v.Value)
}

func (l *ledger) addEndToEnd(workload string, rep *report) {
	if l.EndToEnd[workload] == nil {
		l.EndToEnd[workload] = map[string]*series{}
	}
	for name, v := range rep.Metrics {
		addTo(l.EndToEnd[workload], name, v)
	}
	l.Outputs[workload] = append(l.Outputs[workload], rep.Outputs)
}

func (l *ledger) addTraced(workload string, rep *report) {
	if l.Traced[workload] == nil {
		l.Traced[workload] = map[string]*series{}
	}
	for name, v := range rep.Metrics {
		addTo(l.Traced[workload], name, v)
	}
}

func (l *ledger) write(path string) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// spreadTable prints each end-to-end metric's median and run-to-run
// spread (interquartile range over median) per workload.
func (l *ledger) spreadTable(w io.Writer) {
	fmt.Fprintf(w, "# spread over %d sets (IQR / median), seeds %d..%d, %gs runs\n", l.Sets, l.Seed, l.Seed+uint64(max(l.Sets, 1))-1, l.Seconds)
	fmt.Fprintf(w, "# %-16s %-16s %14s %-12s %8s %6s\n", "workload", "metric", "median", "unit", "spread", "bound")
	for _, def := range workloads {
		for _, m := range endToEnd {
			s := l.EndToEnd[def.name][m.name]
			if s == nil {
				continue
			}
			fmt.Fprintf(w, "# %-16s %-16s %14.6g %-12s %7.1f%% %5.0f%%\n",
				def.name, m.name, median(s.Values), s.Unit, 100*spread(s.Values), 100*m.bound)
		}
	}
}

// worsening returns how much worse b is than a as a share of a, given
// the metric's direction (negative: b is better).
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareLedgers prints, per workload and end-to-end metric, b's
// median against a's with the metric's bound, and whether the simulated
// outputs agree exactly. It returns how many metrics regressed and how
// many outputs differ; it refuses ledgers from different machines.
func compareLedgers(w io.Writer, a, b *ledger) (regressed, differing int, err error) {
	if a.Fingerprint != b.Fingerprint {
		return 0, 0, fmt.Errorf("ledgers were recorded on different machines and are not comparable:\n  a: %+v\n  b: %+v", a.Fingerprint, b.Fingerprint)
	}
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %8s %6s %8s  %s\n", "workload", "metric", "a median", "b median", "worse", "bound", "spread", "verdict")
	for _, def := range workloads {
		for _, m := range endToEnd {
			sa, sb := a.EndToEnd[def.name][m.name], b.EndToEnd[def.name][m.name]
			if sa == nil || sb == nil {
				continue
			}
			ma, mb := median(sa.Values), median(sb.Values)
			worse := worsening(m.better, ma, mb)
			sp := max(spread(sa.Values), spread(sb.Values))
			verdict := "ok"
			switch {
			case sp > m.bound:
				// The runs of one side disagree with each other by more
				// than the bound: the pair cannot resolve a change of
				// that size either way.
				verdict = "unresolved"
			case worse > m.bound:
				verdict = "REGRESSED"
				regressed++
			}
			fmt.Fprintf(w, "%-16s %-16s %14.6g %14.6g %+7.1f%% %5.0f%% %7.1f%%  %s\n",
				def.name, m.name, ma, mb, 100*worse, 100*m.bound, 100*sp, verdict)
		}
	}
	for _, def := range workloads {
		oa, ob := a.Outputs[def.name], b.Outputs[def.name]
		checked := 0
		for set := 0; set < len(oa) && set < len(ob) && a.Seed == b.Seed; set++ {
			for _, k := range sortedKeys(oa[set]) {
				vb, ok := ob[set][k]
				if !ok {
					continue
				}
				checked++
				if vb != oa[set][k] {
					differing++
					fmt.Fprintf(w, "%s set %d: simulated output differs\n-%s %s\n+%s %s\n", def.name, set, k, oa[set][k], k, vb)
				}
			}
		}
		if checked > 0 {
			fmt.Fprintf(w, "%-16s %d simulated outputs compared\n", def.name, checked)
		}
	}
	return regressed, differing, nil
}
