package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(3) // must not panic
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil histogram not empty")
	}
	var r *Registry
	if r.Histogram("x", Labels{}, []float64{1}) != nil {
		t.Fatalf("nil registry returned non-nil histogram")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var r Registry
	h := r.Histogram("lat", Labels{}, []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1, 1.5, 3, 7, 100} {
		h.Observe(v)
	}
	// 0.5 and 1 land in le=1 (SearchFloat64s: first bound >= v),
	// 1.5 in le=2, 3 in le=4, 7 in le=8, 100 overflows to +Inf.
	want := []int64{2, 1, 1, 1, 1}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 6 {
		t.Errorf("count %d, want 6", h.Count())
	}
	if math.Abs(h.Sum()-113) > 1e-9 {
		t.Errorf("sum %g, want 113", h.Sum())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var r Registry
	h := r.Histogram("lat", Labels{}, ExpBuckets(1, 2, 8))
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%50) + 1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count %d, want %d", h.Count(), workers*per)
	}
	var total int64
	for _, c := range h.BucketCounts() {
		total += c
	}
	if total != workers*per {
		t.Fatalf("bucket total %d, want %d", total, workers*per)
	}
	wantSum := float64(workers) * (per / 50) * (50 * 51 / 2)
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("sum %g, want %g", h.Sum(), wantSum)
	}
}

func TestHistogramExport(t *testing.T) {
	var r Registry
	h := r.Histogram("run_seconds", Labels{Family: "mesh", Outcome: "done"}, []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE run_seconds histogram",
		`run_seconds_bucket{family="mesh",outcome="done",le="1"} 1`,
		`run_seconds_bucket{family="mesh",outcome="done",le="10"} 2`,
		`run_seconds_bucket{family="mesh",outcome="done",le="+Inf"} 3`,
		`run_seconds_sum{family="mesh",outcome="done"} 55.5`,
		`run_seconds_count{family="mesh",outcome="done"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramReset(t *testing.T) {
	var r Registry
	h := r.Histogram("lat", Labels{}, []float64{1, 2})
	h.Observe(1.5)
	r.Reset()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("reset did not clear histogram: count=%d sum=%g", h.Count(), h.Sum())
	}
	for i, c := range h.BucketCounts() {
		if c != 0 {
			t.Fatalf("bucket %d not cleared", i)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(4, 2, 5)
	want := []float64{4, 8, 16, 32, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestHistogramSampler(t *testing.T) {
	var r Registry
	h := r.Histogram("lat", Labels{}, []float64{1, 2})
	s := NewSampler(&r, 10)
	h.Observe(1)
	h.Observe(2)
	s.OnCycle(9, 0) // first boundary: windowed count delta = 2
	h.Observe(3)
	s.OnCycle(19, 0) // second boundary: delta = 1
	rows := s.Samples()
	if len(rows) != 2 {
		t.Fatalf("got %d samples, want 2", len(rows))
	}
	if rows[0].Values[0] != 2 || rows[1].Values[0] != 1 {
		t.Fatalf("windowed deltas = %g, %g; want 2, 1",
			rows[0].Values[0], rows[1].Values[0])
	}
}

// TestHistogramRegisteredAgain: asking for a registered histogram again
// with equal bounds returns it, one series; different bounds, or
// another kind of series under the key, panic.
func TestHistogramRegisteredAgain(t *testing.T) {
	reg := &Registry{}
	l := Labels{Family: "mesh"}
	h := reg.Histogram("run_seconds", l, []float64{1, 2})
	if again := reg.Histogram("run_seconds", l, []float64{1, 2}); again != h {
		t.Fatal("equal name, labels and bounds registered a second histogram")
	}
	reg.Counter("events", l)
	if n := len(reg.Series()); n != 2 {
		t.Fatalf("%d series; want 2", n)
	}
	for name, register := range map[string]func(){
		"a histogram with other bounds":     func() { reg.Histogram("run_seconds", l, []float64{1, 3}) },
		"a counter under a histogram's key": func() { reg.Counter("run_seconds", l) },
		"a histogram under a counter's key": func() { reg.Histogram("events", l, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			register()
		}()
	}
}
