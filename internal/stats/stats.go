// Package stats provides the output-analysis machinery used by the
// simulator: streaming accumulators, the batch-means method (with the
// first batch discarded to remove initialization bias, as in the
// paper), confidence intervals, and utilization counters.
package stats

import (
	"fmt"
	"math"
)

// Accumulator keeps streaming summary statistics of a sequence of
// observations using Welford's algorithm (numerically stable). The zero
// value is ready to use.
type Accumulator struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Merge folds other into a.
func (a *Accumulator) Merge(other *Accumulator) {
	if other.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *other
		return
	}
	n := a.n + other.n
	d := other.mean - a.mean
	a.m2 += other.m2 + d*d*float64(a.n)*float64(other.n)/float64(n)
	a.mean += d * float64(other.n) / float64(n)
	if other.min < a.min {
		a.min = other.min
	}
	if other.max > a.max {
		a.max = other.max
	}
	a.n = n
}

// Count returns the number of observations.
func (a *Accumulator) Count() int64 { return a.n }

// Mean returns the sample mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Min returns the smallest observation (0 when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 when empty).
func (a *Accumulator) Max() float64 { return a.max }

// Variance returns the unbiased sample variance.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Reset returns the accumulator to its zero state.
func (a *Accumulator) Reset() { *a = Accumulator{} }

// String summarizes the accumulator.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		a.n, a.Mean(), a.StdDev(), a.min, a.max)
}

// BatchMeans implements the batch-means method of simulation output
// analysis: observations are grouped into fixed-length batches, the
// first batch is discarded (initialization bias), and the remaining
// batch means are treated as approximately independent samples.
//
// Batches here are delimited by the caller (the runner closes a batch
// every batchCycles simulation cycles) via CloseBatch, so a batch's
// "length" is simulated time, not an observation count — the natural
// choice for latency series whose rate depends on congestion.
type BatchMeans struct {
	current Accumulator
	batches []float64
	weights []int64
	discard int
	closed  int
}

// NewBatchMeans returns a BatchMeans that will drop the first discard
// batches (the paper discards one).
func NewBatchMeans(discard int) *BatchMeans {
	if discard < 0 {
		discard = 0
	}
	return &BatchMeans{discard: discard}
}

// Add records an observation into the current batch.
func (b *BatchMeans) Add(x float64) { b.current.Add(x) }

// CloseBatch ends the current batch. Empty batches are recorded with
// weight zero so saturated runs (where no responses complete) are
// visible rather than silently shortened.
func (b *BatchMeans) CloseBatch() {
	b.closed++
	if b.closed <= b.discard {
		b.current.Reset()
		return
	}
	b.batches = append(b.batches, b.current.Mean())
	b.weights = append(b.weights, b.current.Count())
	b.current.Reset()
}

// Batches returns the number of retained (non-discarded) batches.
func (b *BatchMeans) Batches() int { return len(b.batches) }

// Observations returns the total observation count in retained batches.
func (b *BatchMeans) Observations() int64 {
	var n int64
	for _, w := range b.weights {
		n += w
	}
	return n
}

// Mean returns the grand mean over retained batch means, weighting each
// batch by its observation count (robust when some batches are thin).
func (b *BatchMeans) Mean() float64 {
	var sum float64
	var n int64
	for i, m := range b.batches {
		sum += m * float64(b.weights[i])
		n += b.weights[i]
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// HalfWidth returns the half-width of the 95% confidence interval on
// the mean of batch means (equal-weight across non-empty batches, the
// classical batch-means estimator).
func (b *BatchMeans) HalfWidth() float64 {
	var acc Accumulator
	for i, m := range b.batches {
		if b.weights[i] > 0 {
			acc.Add(m)
		}
	}
	k := acc.Count()
	if k < 2 {
		return math.Inf(1)
	}
	se := acc.StdDev() / math.Sqrt(float64(k))
	return tCritical95(int(k-1)) * se
}

// tCritical95 returns the two-sided 95% Student-t critical value for
// the given degrees of freedom (exact table for small df, normal
// approximation beyond).
func tCritical95(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
		2.262, 2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
		2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
		2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}

// Utilization tracks how busy a resource is: busy event-counts against
// elapsed capacity. For a link, call Busy(1) each cycle a flit is
// transferred; capacity accrues via Tick.
type Utilization struct {
	busy     int64
	capacity int64
}

// Busy records n units of useful work.
func (u *Utilization) Busy(n int64) { u.busy += n }

// Tick records n units of available capacity.
func (u *Utilization) Tick(n int64) { u.capacity += n }

// Value returns busy/capacity in [0,1] (0 when no capacity recorded).
func (u *Utilization) Value() float64 {
	if u.capacity == 0 {
		return 0
	}
	return float64(u.busy) / float64(u.capacity)
}

// Counts returns the raw busy and capacity counters (for windowed
// samplers that difference successive snapshots).
func (u *Utilization) Counts() (busy, capacity int64) { return u.busy, u.capacity }

// Reset clears the counters.
func (u *Utilization) Reset() { *u = Utilization{} }

// Merge folds other into u.
func (u *Utilization) Merge(other *Utilization) {
	u.busy += other.busy
	u.capacity += other.capacity
}

// Histogram is a fixed-width bucket histogram for latency
// distributions; values beyond the last bucket go to an overflow bin.
type Histogram struct {
	width   float64
	buckets []int64
	over    int64
	acc     Accumulator
}

// NewHistogram creates a histogram with n buckets of the given width.
func NewHistogram(n int, width float64) *Histogram {
	if n <= 0 || width <= 0 {
		panic("stats: NewHistogram needs n > 0 and width > 0")
	}
	return &Histogram{width: width, buckets: make([]int64, n)}
}

// Add records a value.
func (h *Histogram) Add(x float64) {
	h.acc.Add(x)
	if x < 0 {
		x = 0
	}
	i := int(x / h.width)
	if i >= len(h.buckets) {
		h.over++
		return
	}
	h.buckets[i]++
}

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 { return h.acc.Count() }

// Mean returns the mean of recorded values.
func (h *Histogram) Mean() float64 { return h.acc.Mean() }

// Quantile returns an estimate (bucket upper edge) of the q-quantile,
// q in [0,1].
func (h *Histogram) Quantile(q float64) float64 {
	if h.acc.Count() == 0 {
		return 0
	}
	target := q * float64(h.acc.Count())
	var cum float64
	for i, c := range h.buckets {
		cum += float64(c)
		if cum >= target {
			return float64(i+1) * h.width
		}
	}
	return h.acc.Max()
}

// Lag1Autocorrelation estimates the lag-1 autocorrelation of a series
// — the standard check that batch means are long enough to treat as
// independent samples (MacDougall's smpl, the library behind the
// paper's simulator, recommends enlarging batches until neighbouring
// batch means are uncorrelated).
func Lag1Autocorrelation(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - mean
		den += d * d
		if i+1 < n {
			num += d * (xs[i+1] - mean)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// BatchMeansValues returns the retained batch means (weights > 0),
// for diagnostics such as autocorrelation checks.
func (b *BatchMeans) BatchMeansValues() []float64 {
	var out []float64
	for i, m := range b.batches {
		if b.weights[i] > 0 {
			out = append(out, m)
		}
	}
	return out
}

// Correlated reports whether the retained batch means show strong
// lag-1 autocorrelation (|r| > threshold), signalling that batches
// are too short for the confidence interval to be trusted.
func (b *BatchMeans) Correlated(threshold float64) bool {
	vals := b.BatchMeansValues()
	if len(vals) < 3 {
		return false
	}
	r := Lag1Autocorrelation(vals)
	return r > threshold || r < -threshold
}
