package metrics

// Sample is one sampler row: the engine tick it was taken at and one
// value per selected series (aligned with Sampler.Keys).
type Sample struct {
	// Tick is the engine tick of the last cycle covered by this row.
	Tick int64
	// Values holds one value per selected series: windowed utilization
	// in [0,1] for ratios, the event count within the window for
	// counters (and the observation count for histograms), and the
	// instantaneous value for gauges.
	Values []float64
}

// Sampler snapshots selected registry series every interval engine
// ticks into an in-memory time series. It attaches to the engine's
// per-tick observability hook (sim.Engine.OnCycle); the core runner
// wires and resets it so the collected rows cover the measured
// (post-warmup) interval only.
//
// Ratios and counters are recorded as windowed values — the change
// since the previous sample — because the instantaneous shape is what
// end-of-run aggregates hide: a saturating global ring shows up as a
// per-window utilization climbing to 1.0, not as a slowly drifting
// cumulative mean.
type Sampler struct {
	reg      *Registry
	interval int64
	selected []*Series
	keys     []string

	// prev holds each selected series' raw state at the previous
	// sample boundary (counter count or ratio busy/capacity).
	prevA, prevB []int64

	samples []Sample
}

// NewSampler selects every series registered so far and samples them
// every interval ticks. It returns nil for a nil registry or a
// non-positive interval — and a nil *Sampler is safe to use
// everywhere, so callers wire it unconditionally.
func NewSampler(reg *Registry, interval int64) *Sampler {
	if reg == nil || interval <= 0 {
		return nil
	}
	s := &Sampler{reg: reg, interval: interval, selected: reg.Series()}
	for _, sr := range s.selected {
		s.keys = append(s.keys, sr.Key())
	}
	s.prevA = make([]int64, len(s.selected))
	s.prevB = make([]int64, len(s.selected))
	s.rebase()
	return s
}

// Keys returns the selected series keys, aligned with Sample.Values.
func (s *Sampler) Keys() []string {
	if s == nil {
		return nil
	}
	return s.keys
}

// Samples returns the collected rows in time order.
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	return s.samples
}

// OnCycle is the engine per-tick hook: it takes a sample once every
// interval ticks. Assign it to sim.Engine.OnCycle (or call it from a
// composed hook). Nil-safe.
func (s *Sampler) OnCycle(now int64, moved uint64) {
	if s == nil {
		return
	}
	if (now+1)%s.interval != 0 {
		return
	}
	row := Sample{Tick: now, Values: make([]float64, len(s.selected))}
	for i, sr := range s.selected {
		switch sr.Kind {
		case KindGauge:
			row.Values[i] = sr.gauge()
		default:
			a, b := sr.raw()
			da, db := a-s.prevA[i], b-s.prevB[i]
			s.prevA[i], s.prevB[i] = a, b
			if sr.Kind == KindCounter || sr.Kind == KindHistogram {
				row.Values[i] = float64(da)
			} else if db > 0 {
				row.Values[i] = float64(da) / float64(db)
			}
		}
	}
	s.samples = append(s.samples, row)
}

// Reset discards the collected rows and re-baselines the windowed
// deltas against the series' current state — the warmup-aware reset,
// called together with Registry.Reset when the first batch is
// discarded. Nil-safe.
func (s *Sampler) Reset() {
	if s == nil {
		return
	}
	s.samples = nil
	s.rebase()
}

// rebase records the current raw state of every selected series as
// the delta baseline.
func (s *Sampler) rebase() {
	for i, sr := range s.selected {
		s.prevA[i], s.prevB[i] = sr.raw()
	}
}
