package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulatorBasic(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{1, 2, 3, 4, 5} {
		a.Add(x)
	}
	if a.Count() != 5 {
		t.Fatalf("count = %d", a.Count())
	}
	if !almostEq(a.Mean(), 3, 1e-12) {
		t.Fatalf("mean = %v", a.Mean())
	}
	if !almostEq(a.Variance(), 2.5, 1e-12) {
		t.Fatalf("variance = %v", a.Variance())
	}
	if a.Min() != 1 || a.Max() != 5 {
		t.Fatalf("min/max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdDev() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(7)
	if a.Variance() != 0 {
		t.Fatalf("variance of single obs = %v", a.Variance())
	}
	if a.Min() != 7 || a.Max() != 7 {
		t.Fatal("min/max wrong for single obs")
	}
}

func TestAccumulatorMerge(t *testing.T) {
	var whole, left, right Accumulator
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	for i, x := range xs {
		whole.Add(x)
		if i < 5 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	left.Merge(&right)
	if left.Count() != whole.Count() {
		t.Fatalf("merged count = %d, want %d", left.Count(), whole.Count())
	}
	if !almostEq(left.Mean(), whole.Mean(), 1e-12) {
		t.Fatalf("merged mean = %v, want %v", left.Mean(), whole.Mean())
	}
	if !almostEq(left.Variance(), whole.Variance(), 1e-9) {
		t.Fatalf("merged variance = %v, want %v", left.Variance(), whole.Variance())
	}
	if left.Min() != whole.Min() || left.Max() != whole.Max() {
		t.Fatal("merged min/max wrong")
	}
}

func TestAccumulatorMergeEmpty(t *testing.T) {
	var a, b Accumulator
	a.Add(1)
	a.Merge(&b) // no-op
	if a.Count() != 1 {
		t.Fatal("merge with empty changed count")
	}
	b.Merge(&a)
	if b.Count() != 1 || b.Mean() != 1 {
		t.Fatal("merge into empty failed")
	}
}

// Property: merging two accumulators equals accumulating the
// concatenation, for arbitrary inputs.
func TestQuickMergeEquivalence(t *testing.T) {
	f := func(xs, ys []float64) bool {
		clean := func(vs []float64) []float64 {
			out := vs[:0]
			for _, v := range vs {
				if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
					out = append(out, v)
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)
		var a, b, c Accumulator
		for _, x := range xs {
			a.Add(x)
			c.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
			c.Add(y)
		}
		a.Merge(&b)
		return a.Count() == c.Count() &&
			almostEq(a.Mean(), c.Mean(), 1e-6+1e-9*math.Abs(c.Mean())) &&
			almostEq(a.Variance(), c.Variance(), 1e-4+1e-6*c.Variance())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatchMeansDiscard(t *testing.T) {
	b := NewBatchMeans(1)
	// Warmup batch with wildly biased values.
	b.Add(1000)
	b.Add(2000)
	b.CloseBatch()
	// Two real batches.
	b.Add(10)
	b.Add(20)
	b.CloseBatch()
	b.Add(30)
	b.Add(40)
	b.CloseBatch()
	if b.Batches() != 2 {
		t.Fatalf("batches = %d, want 2", b.Batches())
	}
	if !almostEq(b.Mean(), 25, 1e-12) {
		t.Fatalf("mean = %v, want 25 (warmup not discarded?)", b.Mean())
	}
	if b.Observations() != 4 {
		t.Fatalf("observations = %d", b.Observations())
	}
}

func TestBatchMeansWeighted(t *testing.T) {
	b := NewBatchMeans(0)
	b.Add(10) // batch of 1 obs
	b.CloseBatch()
	for i := 0; i < 3; i++ { // batch of 3 obs, mean 20
		b.Add(20)
	}
	b.CloseBatch()
	want := (10.0 + 3*20.0) / 4
	if !almostEq(b.Mean(), want, 1e-12) {
		t.Fatalf("weighted mean = %v, want %v", b.Mean(), want)
	}
}

func TestBatchMeansEmptyBatches(t *testing.T) {
	b := NewBatchMeans(0)
	b.CloseBatch() // empty
	b.Add(5)
	b.CloseBatch()
	if b.Batches() != 2 {
		t.Fatalf("batches = %d", b.Batches())
	}
	if b.Mean() != 5 {
		t.Fatalf("mean = %v", b.Mean())
	}
}

func TestBatchMeansAllEmpty(t *testing.T) {
	b := NewBatchMeans(1)
	b.CloseBatch()
	b.CloseBatch()
	if b.Mean() != 0 {
		t.Fatalf("mean of no observations = %v", b.Mean())
	}
	if !math.IsInf(b.HalfWidth(), 1) {
		t.Fatalf("half-width with <2 batches should be +Inf")
	}
}

func TestBatchMeansHalfWidthShrinks(t *testing.T) {
	mk := func(k int) float64 {
		b := NewBatchMeans(0)
		for i := 0; i < k; i++ {
			b.Add(float64(i % 2)) // alternating 0/1 batch means
			b.CloseBatch()
		}
		return b.HalfWidth()
	}
	if !(mk(40) < mk(4)) {
		t.Fatal("half-width should shrink with more batches")
	}
}

func TestTCritical(t *testing.T) {
	if got := tCritical95(1); !almostEq(got, 12.706, 1e-9) {
		t.Fatalf("t(1) = %v", got)
	}
	if got := tCritical95(10); !almostEq(got, 2.228, 1e-9) {
		t.Fatalf("t(10) = %v", got)
	}
	if got := tCritical95(1000); got != 1.96 {
		t.Fatalf("t(1000) = %v", got)
	}
	if !math.IsInf(tCritical95(0), 1) {
		t.Fatal("t(0) should be +Inf")
	}
}

func TestUtilization(t *testing.T) {
	var u Utilization
	if u.Value() != 0 {
		t.Fatal("empty utilization should be 0")
	}
	u.Tick(10)
	u.Busy(4)
	if !almostEq(u.Value(), 0.4, 1e-12) {
		t.Fatalf("value = %v", u.Value())
	}
	var v Utilization
	v.Tick(10)
	v.Busy(6)
	u.Merge(&v)
	if !almostEq(u.Value(), 0.5, 1e-12) {
		t.Fatalf("merged value = %v", u.Value())
	}
	u.Reset()
	if u.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 10) // buckets [0,10)...[90,100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	h.Add(500) // overflow
	if h.Count() != 101 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.over != 1 {
		t.Fatalf("overflow = %d", h.over)
	}
	q50 := h.Quantile(0.5)
	if q50 < 40 || q50 > 70 {
		t.Fatalf("median estimate = %v", q50)
	}
	if h.Quantile(0) != 10 { // first non-empty bucket upper edge
		t.Fatalf("q0 = %v", h.Quantile(0))
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram(0, 1) did not panic")
		}
	}()
	NewHistogram(0, 1)
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram(4, 1)
	h.Add(-5)
	if h.Count() != 1 {
		t.Fatal("negative value not recorded")
	}
}

func TestLag1Autocorrelation(t *testing.T) {
	// A strongly trending series is highly autocorrelated.
	trend := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if r := Lag1Autocorrelation(trend); r < 0.5 {
		t.Fatalf("trend autocorrelation = %v, want high", r)
	}
	// An alternating series is negatively autocorrelated.
	alt := []float64{1, -1, 1, -1, 1, -1, 1, -1}
	if r := Lag1Autocorrelation(alt); r > -0.5 {
		t.Fatalf("alternating autocorrelation = %v, want strongly negative", r)
	}
	// Degenerate inputs.
	if Lag1Autocorrelation(nil) != 0 || Lag1Autocorrelation([]float64{5}) != 0 {
		t.Fatal("degenerate series should return 0")
	}
	if Lag1Autocorrelation([]float64{3, 3, 3}) != 0 {
		t.Fatal("constant series should return 0")
	}
}

func TestBatchMeansCorrelated(t *testing.T) {
	b := NewBatchMeans(0)
	for i := 0; i < 10; i++ {
		b.Add(float64(i * 10)) // strong upward trend across batches
		b.CloseBatch()
	}
	if !b.Correlated(0.5) {
		t.Fatal("trending batch means not flagged as correlated")
	}
	vals := b.BatchMeansValues()
	if len(vals) != 10 || vals[3] != 30 {
		t.Fatalf("batch means values = %v", vals)
	}
	// Too few batches: never flagged.
	c := NewBatchMeans(0)
	c.Add(1)
	c.CloseBatch()
	c.Add(2)
	c.CloseBatch()
	if c.Correlated(0.1) {
		t.Fatal("two batches cannot be judged correlated")
	}
}

// TestUtilizationMergeZeroCapacity covers merging with zero-capacity
// operands in every direction: an unticked counter must act as the
// identity and never poison the merged ratio with a 0/0 division.
func TestUtilizationMergeZeroCapacity(t *testing.T) {
	var active Utilization
	active.Tick(10)
	active.Busy(5)

	var empty Utilization
	active.Merge(&empty) // zero-capacity right operand: identity
	if !almostEq(active.Value(), 0.5, 1e-12) {
		t.Fatalf("merge with empty changed value: %v", active.Value())
	}

	var dst Utilization
	dst.Merge(&active) // zero-capacity left operand: adopts the right
	if !almostEq(dst.Value(), 0.5, 1e-12) {
		t.Fatalf("empty.Merge(active) = %v, want 0.5", dst.Value())
	}

	var a, b Utilization
	a.Merge(&b) // both empty: still defined, still zero
	if a.Value() != 0 {
		t.Fatalf("empty merge produced %v", a.Value())
	}
	if busy, capacity := a.Counts(); busy != 0 || capacity != 0 {
		t.Fatalf("empty merge counts = %d/%d", busy, capacity)
	}
}
