// Package metrics is the simulator's instrumentation subsystem: a
// registry of named, labelled series that every network model reports
// into, a cycle-driven sampler that turns the registry into in-memory
// time series, and machine-readable exporters (CSV, JSONL, a
// Prometheus-style text snapshot).
//
// The design follows the trace.Recorder pattern: recording is
// zero-cost when disabled. A nil *Registry hands out nil instruments,
// and every instrument method is nil-safe, so models instrument
// unconditionally without branching at call sites. Instrumentation is
// observation-only — attaching a registry must never change a
// simulation result bit-for-bit (the golden tests enforce this).
//
// Three instrument kinds cover the models' needs, and each only reads
// state the models keep anyway, so a model ticks the same code with
// or without a registry:
//
//   - Counter: a monotonically increasing event count. A model
//     registers a read view of a count it always keeps (injection
//     stalls, e-cube turns, applied fault events) with CounterFunc;
//     the serving daemon's concurrent counts are atomic Counters.
//   - Gauge: an instantaneous value read through a callback at sample
//     time (queue occupancy).
//   - Ratio: busy-over-capacity utilization of a group of links
//     (sim.LinkGroup), read from the counters and the clock the models
//     keep for their end-of-run stats.
//
// The measurement clock is warmup-aware: Registry.Reset (called by
// the core runner when the batch-means method discards its first
// batch) rebases counter and ratio series on their current counts, so
// exported series cover the measured interval only.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ringmesh/internal/sim"
)

// Labels is the small fixed label scheme keying a series. Empty
// fields are omitted from the rendered key. The scheme is deliberately
// closed (no free-form map): every model names its instruments with
// the same dimensions, so exported series are joinable across
// topologies.
type Labels struct {
	// Link names a physical channel or channel group ("L0" for the
	// global ring level, "east" for a mesh direction).
	Link string
	// Node names a network attachment ("nic3", "iri[0,24)", "router5").
	Node string
	// Queue names a buffer at the node ("up", "down", "input").
	Queue string
	// Class is the traffic class ("req" or "rsp").
	Class string
	// Family is the network family a served job targets ("ring",
	// "mesh"); a serving-layer dimension, empty on model instruments.
	Family string
	// Outcome is a served job's terminal state ("done", "failed");
	// a serving-layer dimension, empty on model instruments.
	Outcome string
	// Fidelity is the answer tier a served request used ("simulate",
	// "analytic", "auto"); a serving-layer dimension, empty on model
	// instruments.
	Fidelity string
}

// pairs lists every label as (key, value) in the fixed key order both
// renderings use; a renderer skips the empty ones.
func (l Labels) pairs() [][2]string {
	return [][2]string{{"link", l.Link}, {"node", l.Node}, {"queue", l.Queue}, {"class", l.Class},
		{"family", l.Family}, {"outcome", l.Outcome}, {"fidelity", l.Fidelity}}
}

// String renders the labels in {k=v,...} form with a fixed key order,
// or "" when all labels are empty.
func (l Labels) String() string {
	var parts []string
	for _, kv := range l.pairs() {
		if kv[1] != "" {
			parts = append(parts, kv[0]+"="+kv[1])
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// promString renders the labels in Prometheus exposition form
// ({k="v",...}), or "" when all labels are empty. extra appends
// additional pairs (the histogram exporter's "le" bound).
func (l Labels) promString(extra ...[2]string) string {
	var parts []string
	for _, kv := range append(l.pairs(), extra...) {
		if kv[1] != "" {
			parts = append(parts, fmt.Sprintf("%s=%q", kv[0], kv[1]))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Kind classifies a series.
type Kind uint8

const (
	// KindCounter is a monotonically increasing event count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value read at sample time.
	KindGauge
	// KindRatio is busy-over-capacity utilization in [0,1].
	KindRatio
	// KindHistogram is a bucketed value distribution.
	KindHistogram
)

// String names the kind (Prometheus type vocabulary: ratios and
// gauges both expose as gauges).
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge, KindRatio:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Counter is a monotonically increasing, atomic event count, so
// concurrent jobs may share one (the serving daemon's cache and queue
// counters). The nil Counter (handed out by a nil Registry) ignores
// every call.
type Counter struct{ v atomic.Int64 }

// Add records n events.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc records one event.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a concurrency-safe, bucketed value distribution: each
// observation lands in the first bucket whose upper bound is >= the
// value (one implicit +Inf bucket catches the rest), and a running sum
// and count ride along, so the exporter can render the Prometheus
// histogram triplet (_bucket/_sum/_count) and callers can estimate
// quantiles without retaining observations.
//
// Like Counter, the nil Histogram (handed out by a nil Registry)
// ignores every call, so instrumented paths cost one pointer test when
// metrics are disabled. All state is atomic: concurrent jobs in the
// serving daemon observe into one shared instrument. A concurrent
// snapshot is not a consistent cut (a racing Observe may be counted in
// the buckets but not yet in the sum); the drift is one observation
// and irrelevant for monitoring.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Int64
}

// ExpBuckets returns n exponentially growing bucket bounds:
// start, start*factor, ..., start*factor^(n-1) — the log-bucketed
// scheme latency distributions want (constant relative resolution).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 for a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of observed values (0 for a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bounds returns the bucket upper bounds (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCounts returns a snapshot of the per-bucket counts, one entry
// per bound plus the trailing +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// reset clears all state (the registry's warmup-aware Reset).
func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// Series is one named, labelled instrument registered in a Registry.
type Series struct {
	// Name is the metric name ("ring_link_util").
	Name string
	// Labels distinguishes series sharing a name.
	Labels Labels
	// Kind classifies the instrument.
	Kind Kind

	// count reads a counter series' raw count; base is the count at the
	// last Registry.Reset, so the series reads count() - base.
	count func() int64
	base  atomic.Int64
	gauge func() float64
	// links is a ratio series' group and mark its reading at the last
	// Registry.Reset.
	links sim.LinkGroup
	mark  sim.LinkMark
	hist  *Histogram
}

// counted returns a counter series' count since the last reset. base
// is read first: the count is monotonic, so a racing Reset can never
// make the difference negative.
func (s *Series) counted() int64 {
	base := s.base.Load()
	return s.count() - base
}

// Hist returns the series' histogram instrument (nil unless the series
// is KindHistogram) — the exporter reads buckets through it.
func (s *Series) Hist() *Histogram {
	if s.Kind != KindHistogram {
		return nil
	}
	return s.hist
}

// Key returns the unique series key: name plus rendered labels.
func (s *Series) Key() string { return s.Name + s.Labels.String() }

// Value returns the series' current cumulative value: the count for
// counters, the callback's value for gauges, merged busy/capacity for
// ratios.
func (s *Series) Value() float64 {
	switch s.Kind {
	case KindCounter:
		return float64(s.counted())
	case KindGauge:
		return s.gauge()
	case KindHistogram:
		return float64(s.hist.Count())
	default:
		return sim.Utilization(s.links.Since(s.mark))
	}
}

// raw returns the series' internal state as an integer pair for the
// sampler's windowed deltas: (count, 0) for counters, (busy, capacity)
// for ratios. Gauges have no accumulating state and return zeros.
func (s *Series) raw() (int64, int64) {
	switch s.Kind {
	case KindCounter:
		return s.counted(), 0
	case KindHistogram:
		return s.hist.Count(), 0
	case KindRatio:
		return s.links.Since(s.mark)
	default:
		return 0, 0
	}
}

// Registry holds instruments in registration order. The nil Registry
// disables instrumentation: it hands out nil instruments and
// registers nothing.
//
// A Registry may be shared across goroutines: registration, lookup,
// reset and export serialize on an internal lock, and counters are
// atomic — the contract the serving daemon relies on when concurrent
// jobs report into one process-wide registry behind a single /metrics
// endpoint. The exception is Ratio series: their link counters stay
// owned by one single-threaded simulation, so a shared
// registry should hold counters and gauges (over atomics) only, and
// each simulated system keeps its own registry for ratio series as
// before.
type Registry struct {
	mu     sync.RWMutex
	series []*Series
	index  map[string]*Series
}

// register adds s and returns it, panicking on a duplicate key —
// duplicate instrument registration is a programmer error in a model's
// DescribeMetrics, not a runtime condition — except that a histogram
// equal to the registered one returns that one instead.
func (r *Registry) register(s *Series) *Series {
	key := s.Key()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.index == nil {
		r.index = map[string]*Series{}
	}
	if old, dup := r.index[key]; dup {
		if s.Kind == KindHistogram && old.Kind == KindHistogram && slices.Equal(s.hist.bounds, old.hist.bounds) {
			return old
		}
		panic(fmt.Sprintf("metrics: series %s registered twice", key))
	}
	r.index[key] = s
	r.series = append(r.series, s)
	return s
}

// Counter registers and returns a counter series. A nil registry
// returns a nil counter, whose methods all no-op.
func (r *Registry) Counter(name string, l Labels) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.CounterFunc(name, l, c.Value)
	return c
}

// CounterFunc registers a counter series that reads a count its owner
// keeps through f, at sample and snapshot time only. f must be
// monotonic. A nil registry registers nothing.
func (r *Registry) CounterFunc(name string, l Labels, f func() int64) {
	if r == nil {
		return
	}
	if f == nil {
		panic(fmt.Sprintf("metrics: CounterFunc(%s%s) with nil callback", name, l))
	}
	r.register(&Series{Name: name, Labels: l, Kind: KindCounter, count: f})
}

// Gauge registers a pull-based gauge series: f is invoked at sample
// and snapshot time only, so gauges add no hot-path cost. A nil
// registry registers nothing.
func (r *Registry) Gauge(name string, l Labels, f func() float64) {
	if r == nil {
		return
	}
	if f == nil {
		panic(fmt.Sprintf("metrics: Gauge(%s%s) with nil callback", name, l))
	}
	r.register(&Series{Name: name, Labels: l, Kind: KindGauge, gauge: f})
}

// Histogram registers and returns a histogram series with the given
// ascending bucket upper bounds (an overflow +Inf bucket is added
// implicitly), or the one registered with equal name, labels and
// bounds; other bounds or kinds under the key panic. A nil registry
// returns a nil histogram, whose methods all no-op.
func (r *Registry) Histogram(name string, l Labels, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: Histogram(%s%s) with no bounds", name, l))
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("metrics: Histogram(%s%s) bounds not ascending", name, l))
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	return r.register(&Series{Name: name, Labels: l, Kind: KindHistogram, hist: h}).hist
}

// Ratio registers a utilization series over link group g: its links'
// busy cycles over the capacity g's clock offered them. The counters
// stay owned by the model that keeps them, so registration adds no
// hot-path work. A nil registry registers nothing.
func (r *Registry) Ratio(name string, l Labels, g sim.LinkGroup) {
	if r == nil {
		return
	}
	if len(g.Busy) == 0 {
		panic(fmt.Sprintf("metrics: Ratio(%s%s) with no links", name, l))
	}
	r.register(&Series{Name: name, Labels: l, Kind: KindRatio, links: g, mark: g.Mark()})
}

// Series returns the registered series in registration order (nil for
// a nil registry). The returned slice is a snapshot: registrations
// that race with the call land in later snapshots.
func (r *Registry) Series() []*Series {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.series == nil {
		return nil
	}
	out := make([]*Series, len(r.series))
	copy(out, r.series)
	return out
}

// Reset rebases every counter and ratio series on its current counts
// and clears every histogram — the warmup-aware reset: the core runner
// calls it when the batch-means method discards the first batch, so
// exported series cover the measured interval only. Gauges are
// instantaneous and have nothing to clear. Nil-safe.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	for _, s := range r.Series() {
		switch s.Kind {
		case KindCounter:
			s.base.Store(s.count())
		case KindHistogram:
			s.hist.reset()
		case KindRatio:
			s.mark = s.links.Mark()
		}
	}
}
