package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {19, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.90},
		{199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Every workload's fixed tail is one its nominal sample count supports.
	for label, want := range map[float64]string{0.5: "p50", 0.95: "p95", 0.999: "p99.9"} {
		if got := percentileLabel(label); got != want {
			t.Errorf("percentileLabel(%v) = %q, want %q", label, got, want)
		}
	}
}

func TestQuantileAndSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(xs, 0.5); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want 1.0", got)
	}
	// statistics.quantiles([10, 11, 12, 30], n=4) == [10.25, 11.5, 25.5]
	if got, want := spread([]float64{30, 10, 12, 11}), (25.5-10.25)/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

// TestSteadyTail: a burst that lands in one part of a run moves the
// pooled quantile but not the median of the parts' quantiles.
func TestSteadyTail(t *testing.T) {
	var lat []float64
	for i := 0; i < 1000; i++ {
		v := 1 + float64(i%100)/100 // every hundred samples cover 1.00..1.99
		if i >= 400 && i < 600 {
			v *= 10 // the third fifth of the run was disturbed
		}
		lat = append(lat, v)
	}
	m := &measurement{latencies: lat}
	if got := steadyTail(m, 0.9); math.Abs(got-1.9) > 0.02 {
		t.Errorf("steadyTail p90 = %v, want about 1.9", got)
	}
	if pooled := quantile(sorted(lat), 0.9); pooled < 10 {
		t.Errorf("pooled p90 = %v: the disturbance was meant to reach it", pooled)
	}
	// Two callers: part k pools both callers' k-th part.
	m = &measurement{latencies: lat, series: [][]float64{lat[:500], lat[500:]}}
	if got := steadyTail(m, 0.9); math.Abs(got-1.9) > 0.02 {
		t.Errorf("two-caller steadyTail p90 = %v, want about 1.9", got)
	}
	// Too few samples beyond the quantile for two parts: the pooled quantile.
	few := []float64{5, 1, 4, 2, 3}
	if got := steadyTail(&measurement{latencies: few}, 0.5); got != 3 {
		t.Errorf("steadyTail of five samples = %v, want the pooled median 3", got)
	}
}

// TestMeterCutsWholeOps: blocks partition the ops and the simulated
// work of a phase, and an empty stretch makes no block.
func TestMeterCutsWholeOps(t *testing.T) {
	m := &measurement{}
	k := m.startMeter()
	k.cut() // nothing done yet
	for i := 0; i < 7; i++ {
		m.attempted++
		m.pmcycles += 10
		if i == 2 || i == 3 {
			k.cut()
		}
	}
	k.finish()
	k.finish() // no op since the last cut
	var ops []int
	work := 0.0
	for _, b := range m.blocks {
		ops = append(ops, b.ops)
		work += b.pmcycles
		if b.wall <= 0 {
			t.Errorf("block of %d ops has wall time %v", b.ops, b.wall)
		}
	}
	if !reflect.DeepEqual(ops, []int{3, 1, 3}) || work != 70 {
		t.Errorf("blocks hold %v ops and %v PM-cycles, want [3 1 3] and 70", ops, work)
	}
	if m.elapsed <= 0 {
		t.Errorf("elapsed = %v", m.elapsed)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	at := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "op", ID: 1, Start: at(0), End: at(100)},
		{Name: "a", ID: 2, Parent: 1, Start: at(10), End: at(40)},
		{Name: "b", ID: 3, Parent: 1, Start: at(30), End: at(60)},    // overlaps a: the overlap counts once
		{Name: "c", ID: 4, Parent: 1, Start: at(90), End: at(120)},   // reaches past its parent: clipped
		{Name: "leaf", ID: 5, Parent: 2, Start: at(15), End: at(25)}, // grandchild: only a's self time shrinks
		{Name: "op", ID: 6, Start: at(200), End: at(230)},            // a second op with no children
	}
	got := map[string]selfTime{}
	for _, r := range selfTimes(spans) {
		got[r.Name] = r
	}
	want := map[string]selfTime{
		"op":   {Name: "op", Count: 2, Total: at(130), Self: at(100 - 60 + 30)},
		"a":    {Name: "a", Count: 1, Total: at(30), Self: at(20)},
		"b":    {Name: "b", Count: 1, Total: at(30), Self: at(30)},
		"c":    {Name: "c", Count: 1, Total: at(30), Self: at(30)},
		"leaf": {Name: "leaf", Count: 1, Total: at(10), Self: at(10)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes:\n got %+v\nwant %+v", got, want)
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *tracer
	id := tr.begin("op", 0, 0, 0)
	tr.end(id)
	tr.record("x", id, 0, 0, time.Now(), time.Second)
	if id != 0 || tr.snapshot() != nil {
		t.Errorf("nil tracer recorded something: id %d", id)
	}
}

func TestChromeTraceCarriesParentAndOp(t *testing.T) {
	tr := newTracer()
	op := tr.begin("op", 0, 7, 1)
	tr.end(tr.begin("facade.Run", op, 7, 1))
	tr.end(op)
	var buf bytes.Buffer
	if err := writeChrome(&buf, tr.epoch, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Args map[string]string
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	child := doc.TraceEvents[1]
	if child.Name != "facade.Run" || child.Args["parent"] != "1" || child.Args["op"] != "7" {
		t.Errorf("child event = %+v", child)
	}
}

func TestSchedulesAreSeedDeterministic(t *testing.T) {
	keys := func(seed uint64) []int {
		h := &hotLoad{env: env{seed: seed}}
		h.perm = popularityOrder(seed)
		_, zipf := h.stream(0, 1)
		out := make([]int, 200)
		for i := range out {
			out[i] = h.perm[zipf.Uint64()]
		}
		return out
	}
	if !reflect.DeepEqual(keys(5), keys(5)) {
		t.Error("Zipf key stream differs between two runs at one seed")
	}
	if reflect.DeepEqual(keys(5), keys(6)) {
		t.Error("Zipf key stream is the same at two seeds")
	}
	hot, top := 0, popularityOrder(5)[0]
	for _, k := range keys(5) {
		if k == top {
			hot++
		}
	}
	if hot < 20 { // rank 0 draws about a fifth of a Zipf(1.1) stream over 64 keys
		t.Errorf("rank-0 key drew %d of 200, want a skewed stream", hot)
	}
	seenKey := map[int]bool{}
	for r, k := range popularityOrder(5) {
		if k%2 != r%2 || seenKey[k] {
			t.Fatalf("popularity rank %d maps to key %d: want each key once, rings on even ranks", r, k)
		}
		seenKey[k] = true
	}

	a := submitSchedule(5, 0, submitRate, 2*time.Second)
	b := submitSchedule(5, 0, submitRate, 2*time.Second)
	if len(a) != int(submitRate*2) || !reflect.DeepEqual(a, b) {
		t.Errorf("Poisson schedule: %d and %d arrivals, equal %v", len(a), len(b), reflect.DeepEqual(a, b))
	}
	if c := submitSchedule(6, 0, submitRate, 2*time.Second); reflect.DeepEqual(a, c) {
		t.Error("Poisson schedule is the same at two seeds")
	}
	seen := map[string]bool{}
	for i, arr := range a {
		if i > 0 && arr.due < a[i-1].due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
		if len(arr.cfgs) > keysUsed {
			t.Fatalf("arrival %d uses %d keys, more than keysUsed", i, len(arr.cfgs))
		}
		for _, cfg := range arr.cfgs {
			k := fmt.Sprintf("%s/%s/%d/%d", cfg.Network, cfg.Topology, cfg.Nodes, cfg.Seed)
			if seen[k] {
				t.Fatalf("arrival %d repeats key %s", i, k)
			}
			seen[k] = true
		}
	}
}

// TestOpenLoopCountsFromDueTime plays three arrivals against a stub
// whose first POST stalls. The later two are answered instantly, but
// they were due while the generator was stuck, so their latency (and
// the reported lag) must include the stall.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var posts atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		n := posts.Add(1)
		if n == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"j%d","state":"queued"}`, n)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"id":%q,"state":"done","result":{"observations":1}}`, r.PathValue("id"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	w := &submitLoad{srv: &server{ts: ts, url: ts.URL}}
	sched := []arrival{
		{due: 0, kind: "run", path: "/v1/runs", body: []byte(`{}`)},
		{due: 10 * time.Millisecond, kind: "run", path: "/v1/runs", body: []byte(`{}`)},
		{due: 20 * time.Millisecond, kind: "run", path: "/v1/runs", body: []byte(`{}`)},
	}
	m, err := w.drive(sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.attempted != 3 || m.failed != 0 || len(m.latencies) != 3 {
		t.Fatalf("attempted %d failed %d latencies %d: %v", m.attempted, m.failed, len(m.latencies), m.notes)
	}
	for i, lat := range m.latencies {
		if lat < ms(stall)-30 {
			t.Errorf("request %d: latency %.1f ms does not include the %s stall it waited behind", i, lat, stall)
		}
	}
	if lag := m.layer["loadgen.lag_ms_p95"]; lag < ms(stall)-40 {
		t.Errorf("reported generator lag p95 %.1f ms, want about %s", lag, stall)
	}
}

func TestDiffExpected(t *testing.T) {
	pinned, err := parseExpected("# comment\nop00 aaa\nop01 bbb\nop02 ccc\n")
	if err != nil {
		t.Fatal(err)
	}
	// A run only answers for the keys it covered: op02 is not a difference.
	got := diffExpected(pinned, map[string]string{"op00": "aaa", "op01": "XXX", "op09": "zzz"})
	want := []string{"-op01 bbb", "+op01 XXX", "+op09 zzz (not pinned)"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("diff = %q, want %q", got, want)
	}
	if _, err := parseExpected("lonely\n"); err == nil {
		t.Error("a line without a value parsed")
	}
	for _, def := range workloads[:4] {
		p, err := loadExpected(def.name)
		if err != nil || len(p) == 0 {
			t.Errorf("%s: no pinned outputs embedded (%v)", def.name, err)
		}
	}
}

func TestCompareLedgers(t *testing.T) {
	mk := func(vals ...float64) *ledger {
		l := newLedger(42, 10)
		l.Sets = len(vals)
		for _, v := range vals {
			l.addEndToEnd("ring-sim", &report{
				Metrics: map[string]metricValue{"ops_per_s": {Value: v, Unit: "1/s"}},
				Outputs: map[string]string{"op00": "aaa"},
			})
		}
		return l
	}
	var out bytes.Buffer
	a := mk(100, 101, 99, 100, 102)
	if reg, diff, err := compareLedgers(&out, a, mk(98, 99, 100, 97, 99)); err != nil || reg != 0 || diff != 0 {
		t.Errorf("equal ledgers: regressed %d differing %d err %v\n%s", reg, diff, err, out.String())
	}
	out.Reset()
	if reg, _, _ := compareLedgers(&out, a, mk(60, 61, 59, 60, 62)); reg != 1 || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("40%% slower: regressed %d\n%s", reg, out.String())
	}
	out.Reset()
	// One side's own runs disagree by more than the bound: no verdict.
	if reg, _, _ := compareLedgers(&out, a, mk(30, 60, 90, 120, 150)); reg != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy side: regressed %d\n%s", reg, out.String())
	}
	out.Reset()
	b := mk(100, 100, 100, 100, 100)
	b.Outputs["ring-sim"][2]["op00"] = "bbb"
	if _, diff, _ := compareLedgers(&out, a, b); diff != 1 {
		t.Errorf("changed output: differing %d\n%s", diff, out.String())
	}
	b.Fingerprint.CPU = "another machine"
	if _, _, err := compareLedgers(&out, a, b); err == nil {
		t.Error("ledgers from different machines were compared")
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var got bytes.Buffer
	if err := describe(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("BENCHMARK.json differs from `bench -describe`; regenerate it")
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(doc.PerLayer))
	}
}

// TestSmoke runs all six workloads end to end at a fiftieth of the
// nominal length, and one of them traced with the probes, and checks
// that every named metric is emitted exactly once.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e := env{seed: 7, seconds: 0.2, tmp: t.TempDir()}
	for _, def := range workloads {
		def.setupReps = 1
		var out bytes.Buffer
		rep, err := runEndToEnd(def, e, "", &out)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
			t.Errorf("%s: correct %v attempted %d failed %d: %v", def.name, rep.Correct, rep.Attempted, rep.Failed, rep.Notes)
		}
		if err := printReport(&out, def.name, rep); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, m := range endToEnd {
			names = append(names, m.name)
		}
		checkEmittedOnce(t, def.name, out.String(), names)
		for _, m := range endToEnd {
			if v := rep.Metrics[m.name]; v.Unit != m.unit || !(v.Value > 0) {
				t.Errorf("%s %s = %v %q, want a positive number of %q", def.name, m.name, v.Value, v.Unit, m.unit)
			}
		}
	}

	def, _ := workloadByName("serve-submit")
	var out bytes.Buffer
	probes := &probeCtx{seed: e.seed, tmp: e.tmp, reps: 2, scale: 0.05}
	e.seconds = 1
	rep, err := runTraced(def, e, t.TempDir(), probes, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("traced serve-submit: %v", rep.Notes)
	}
	if err := printReport(&out, def.name, rep); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range layerMetrics {
		if !m.heavy {
			names = append(names, m.name)
		}
	}
	checkEmittedOnce(t, def.name, out.String(), names)
	for _, span := range []string{"op", "http.post", "http.poll", "serve.run"} {
		if v := rep.Metrics["trace.self_ms."+span]; !(v.Value > 0) {
			t.Errorf("traced serve-submit: no self time for span %s", span)
		}
	}
}

// checkEmittedOnce asserts the printed report holds exactly one
// "workload metric value unit" line per name, no other metric lines,
// and the same names in the closing result line.
func checkEmittedOnce(t *testing.T, workload, printed string, names []string) {
	t.Helper()
	count := map[string]int{}
	lines := strings.Split(strings.TrimSpace(printed), "\n")
	for _, l := range lines {
		if f := strings.Fields(l); len(f) >= 4 && f[0] == workload {
			count[f[1]]++
		}
	}
	var last struct {
		Metrics map[string]struct {
			Value *float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	for _, n := range names {
		if count[n] != 1 {
			t.Errorf("%s: metric %s printed %d times, want once", workload, n, count[n])
		}
		if m, ok := last.Metrics[n]; !ok || m.Value == nil || m.Unit == "" {
			t.Errorf("%s: metric %s missing from the result line", workload, n)
		}
		delete(count, n)
	}
	for n := range count {
		t.Errorf("%s: unexpected metric %s", workload, n)
	}
	if len(last.Metrics) != len(names) {
		t.Errorf("%s: result line holds %d metrics, want %d", workload, len(last.Metrics), len(names))
	}
}
