package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing (0 for derived numbers).
	N int `json:"-"`
	// Note labels what the number is (which percentile a tail is).
	Note string `json:"-"`
}

// report is the last line a workload run prints: the acceptance
// driver's contract.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// The rest rides along for the ledger and the human-readable modes.
	Outputs map[string]string `json:"-"`
	Notes   []string          `json:"-"`
}

// runEndToEnd is the tracing-off run: set up (several times, for a
// steady setup_s), measure for about the given time, check outputs.
func runEndToEnd(def workloadDef, e env, updateDir string, log io.Writer) (*report, error) {
	if def.gcPercent > 0 {
		defer debug.SetGCPercent(debug.SetGCPercent(def.gcPercent))
	}
	if def.keepAwake {
		stop, err := keepAwake()
		if err != nil {
			return nil, err
		}
		defer stop()
	}
	var setups []float64
	var w load
	for rep := 0; rep < def.setupReps; rep++ {
		if w != nil {
			w.close()
		}
		w = def.new(e)
		t := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer w.close()
	m, err := w.measure(time.Duration(e.seconds*float64(time.Second)), nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	rep := newReport(m)
	if err := checkPinned(def.name, e, m, rep, updateDir, log); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	lat := sorted(m.latencies)
	ops := float64(m.attempted)
	perBlock := func(f func(block) float64) metricValue {
		vals := make([]float64, len(m.blocks))
		for i, b := range m.blocks {
			vals[i] = f(b)
		}
		return metricValue{Value: median(vals), N: len(vals), Note: "median of blocks"}
	}
	values := map[string]metricValue{
		"setup_s":        {Value: median(setups), N: len(setups)},
		"ops_per_s":      perBlock(func(b block) float64 { return float64(b.ops) / b.wall.Seconds() }),
		"pmcycles_per_s": perBlock(func(b block) float64 { return b.pmcycles / b.wall.Seconds() }),
		"op_ms_p50":      {Value: quantile(lat, 0.5), N: len(lat)},
		"op_ms_tail":     {Value: steadyTail(m, def.tail), N: len(lat), Note: percentileLabel(def.tail)},
		"cpu_ms_per_op":  perBlock(func(b block) float64 { return ms(b.cpu) / float64(b.ops) }),
		"peak_rss_mb":    {Value: rss},
	}
	rep.Metrics = map[string]metricValue{}
	for _, em := range endToEnd {
		v := values[em.name]
		v.Unit = em.unit
		rep.Metrics[em.name] = v
	}
	if best := highestPercentile(len(lat)); best < def.tail {
		fmt.Fprintf(log, "# %s: %d samples support only %s, op_ms_tail is %s\n",
			def.name, len(lat), percentileLabel(best), percentileLabel(def.tail))
	}
	if def.limitMS > 0 {
		fmt.Fprintf(log, "# %s: %d of %d ops over the %g ms limit (over_limit_share %.5f)\n",
			def.name, m.overLimit, m.attempted, def.limitMS, float64(m.overLimit)/ops)
	}
	return rep, nil
}

// tailParts and tailBeyond size the parts a run's latency samples are
// cut into for the tail: at most five, each keeping at least four
// samples beyond the percentile.
const (
	tailParts  = 5
	tailBeyond = 4
)

// steadyTail is the run's q-quantile latency: the samples are cut, in
// completion order, into up to five consecutive parts, each part's
// quantile is taken, and the median of those is reported. Every part
// holds the same kind of ops, so each estimates the same quantile; a
// burst of someone else's load on the shared host lands in one or two
// parts and the median passes it by, where the pooled quantile would
// report the burst. A run with too few samples for two parts (the 25
// rounds of paper-figs) reports the pooled quantile. With concurrent
// callers, part k pools every caller's k-th part.
func steadyTail(m *measurement, q float64) float64 {
	series := m.series
	if series == nil {
		series = [][]float64{m.latencies}
	}
	parts := min(tailParts, max(1, int(float64(len(m.latencies))*(1-q)/tailBeyond)))
	tails := make([]float64, parts)
	for k := range tails {
		var part []float64
		for _, s := range series {
			part = append(part, s[len(s)*k/parts:len(s)*(k+1)/parts]...)
		}
		tails[k] = quantile(sorted(part), q)
	}
	return median(tails)
}

func newReport(m *measurement) *report {
	return &report{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Outputs:   m.outputs,
		Notes:     m.notes,
	}
}

// checkPinned compares the run's simulated outputs with the digests
// pinned under expected/ (at the pinned seed only), or rewrites them
// when updateDir is set. A mismatch counts as one failed op and the
// differences are printed as a unified summary.
func checkPinned(name string, e env, m *measurement, rep *report, updateDir string, log io.Writer) error {
	if e.seed != pinnedSeed || len(m.outputs) == 0 {
		return nil
	}
	if updateDir != "" {
		fmt.Fprintf(log, "# %s: writing %d pinned outputs to %s\n", name, len(m.outputs), filepath.Join(updateDir, expectedFile(name)))
		return writeExpected(updateDir, name, m.outputs)
	}
	pinned, err := loadExpected(name)
	if err != nil {
		return err
	}
	if diff := diffExpected(pinned, m.outputs); len(diff) > 0 {
		rep.Failed++
		rep.Correct = false
		rep.Notes = append(rep.Notes, fmt.Sprintf("simulated outputs differ from expected/%s", expectedFile(name)))
		fmt.Fprintf(log, "--- expected/%s\n+++ this run\n", expectedFile(name))
		for _, l := range diff {
			fmt.Fprintln(log, l)
		}
	}
	return nil
}

// ledgerPrefix marks the line that carries what the result line may not
// (its keys are fixed): the simulated outputs and failure notes, for
// the parent process's ledger.
const ledgerPrefix = "#ledger "

// printReport writes the human-readable lines, then the contract line.
func printReport(w io.Writer, workload string, rep *report) error {
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "# %s FAILED: %s\n", workload, n)
	}
	for _, name := range sortedKeys(rep.Metrics) {
		fmt.Fprintln(w, metricLine(workload, name, rep.Metrics[name]))
	}
	extra, err := json.Marshal(struct {
		Outputs map[string]string
		Notes   []string
	}{rep.Outputs, rep.Notes})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", ledgerPrefix, extra)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// metricLine renders "workload metric value unit" plus the sample
// count and percentile label where there is one.
func metricLine(workload, name string, v metricValue) string {
	s := fmt.Sprintf("%s %s %.6g %s", workload, name, v.Value, v.Unit)
	if v.Note != "" {
		s += " (" + v.Note + ")"
	}
	if v.N > 0 {
		s += fmt.Sprintf(" n=%d", v.N)
	}
	return s
}

// scratchDir creates this process's scratch directory under the
// checkout's .bench_build.
func scratchDir() (string, error) {
	return freshDir(filepath.Join(".bench_build", "tmp"), fmt.Sprintf("run-%d-", os.Getpid()))
}

// runTraced is the traced run: the workload measured untraced and then
// traced for a quarter of the nominal time each (the difference is the
// tracing overhead), the self-time table and Chrome trace file, and the
// per-layer probes.
func runTraced(def workloadDef, e env, traceDir string, probes *probeCtx, log io.Writer) (*report, error) {
	base, traced, tr, err := tracedPass(def, e)
	if err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	rows := selfTimes(spans)
	writeSelfTable(log, def.name, traced.attempted, rows)
	if traceDir != "" {
		path := filepath.Join(traceDir, def.name+".trace.json")
		if err := writeChromeFile(path, tr.epoch, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "# %s: %d spans written to %s\n", def.name, len(spans), path)
	}

	rep := &report{
		Correct:   base.failed+traced.failed == 0,
		Attempted: base.attempted + traced.attempted,
		Failed:    base.failed + traced.failed,
		Notes:     append(base.notes, traced.notes...),
		Metrics:   map[string]metricValue{},
	}
	values := map[string]float64{}
	if probes != nil {
		if values, err = runProbes(probes); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	// What the workload itself observed at full scale replaces the
	// probe's small-scale reading of the same quantity.
	for k, v := range traced.layer {
		values[k] = v
	}
	for _, r := range rows {
		values["trace.self_ms."+r.Name] = ms(r.Self) / float64(r.Count)
	}
	values["bench.trace_overhead_share"] = traceOverhead(def, base, traced)
	values["bench.over_limit_share"] = float64(traced.overLimit) / float64(max(traced.attempted, 1))
	for _, lm := range layerMetrics {
		v, ok := values[lm.name]
		if !ok && (lm.heavy || (probes == nil && !lm.traced)) {
			continue
		}
		// A span this workload never opens has no self time: zero.
		rep.Metrics[lm.name] = metricValue{Value: v, Unit: lm.unit}
	}
	return rep, nil
}

// tracedPass sets the workload up and measures it untraced, then
// traced, a quarter of the nominal time each.
func tracedPass(def workloadDef, e env) (base, traced *measurement, tr *tracer, err error) {
	if def.gcPercent > 0 {
		defer debug.SetGCPercent(debug.SetGCPercent(def.gcPercent))
	}
	if def.keepAwake {
		stop, err := keepAwake()
		if err != nil {
			return nil, nil, nil, err
		}
		defer stop()
	}
	w := def.new(e)
	defer w.close()
	if err := w.setup(); err != nil {
		return nil, nil, nil, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	d := time.Duration(e.seconds / 4 * float64(time.Second))
	if base, err = w.measure(d, nil); err != nil {
		return nil, nil, nil, fmt.Errorf("%s untraced: %w", def.name, err)
	}
	tr = newTracer()
	if traced, err = w.measure(d, tr); err != nil {
		return nil, nil, nil, fmt.Errorf("%s traced: %w", def.name, err)
	}
	return base, traced, tr, nil
}

// traceOverhead is how much slower the traced phase ran than the
// untraced one: by completed ops per second for a closed loop, by
// median latency for the open loop (whose rate is set by its schedule).
func traceOverhead(def workloadDef, base, traced *measurement) float64 {
	if def.open {
		b, t := median(base.latencies), median(traced.latencies)
		if b == 0 {
			return 0
		}
		return t/b - 1
	}
	rate := func(m *measurement) float64 { return float64(m.attempted) / m.elapsed.Seconds() }
	if rate(traced) == 0 {
		return 0
	}
	return rate(base)/rate(traced) - 1
}

func writeChromeFile(path string, epoch time.Time, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, epoch, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
