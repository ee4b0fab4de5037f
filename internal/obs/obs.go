// Package obs is the simulator's span-level observability layer: a
// lightweight tracer recording named, attributed time spans into a
// bounded per-job timeline, with Chrome trace-event JSON export, plus
// the parallel engine's phase-timing aggregate (PhaseStats).
//
// The package follows the repo's nil-disables convention: every method
// of a nil *Trace no-ops, so instrumented paths cost one pointer test
// when tracing is off. Unlike the metrics registry — cumulative
// instruments scraped at sample time — a trace is an episodic record:
// each span is one interval in one job's life (validate, queue-wait,
// run, a shard's compute phase), and the timeline is bounded so a
// pathological job cannot grow memory without limit.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// SpanRecord is one completed span in a trace's timeline.
type SpanRecord struct {
	// Name is the span's operation name ("run", "queue-wait").
	Name string
	// TID is the logical timeline (Chrome "thread") the span renders
	// on; 0 is the primary lifecycle lane.
	TID int
	// Start is the span's wall-clock start.
	Start time.Time
	// Dur is the span's duration.
	Dur time.Duration
	// Attrs are the span's annotations, in the order added.
	Attrs []Attr
}

// Trace is a bounded, concurrency-safe span timeline. Spans completing
// past the bound are counted as dropped rather than recorded, so the
// export stays honest about truncation.
type Trace struct {
	mu      sync.Mutex
	max     int
	spans   []SpanRecord
	dropped int
}

// NewTrace creates a trace holding at most max spans (max < 1 gets a
// small default).
func NewTrace(max int) *Trace {
	if max < 1 {
		max = 64
	}
	return &Trace{max: max}
}

// Record appends an already-measured span: callers time the interval
// themselves (the queue-wait span is reconstructed from the enqueue
// timestamp rather than held open).
// Nil-safe; spans past the bound are dropped and counted.
func (t *Trace) Record(r SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.max {
		t.dropped++
		return
	}
	t.spans = append(t.spans, r)
}

// Spans returns a snapshot of the recorded spans in completion order.
func (t *Trace) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}

// Dropped returns how many spans the bound discarded.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// chromeEvent is one Chrome trace-event ("ph":"X" complete event).
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`  // microseconds
	Dur  int64             `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChrome renders the trace as Chrome trace-event JSON (the format
// chrome://tracing and Perfetto load): one complete ("X") event per
// span, timestamps in microseconds relative to the earliest span.
// Nil-safe (writes an empty trace).
func (t *Trace) WriteChrome(w io.Writer, pid int) error {
	spans := t.Spans()
	var epoch time.Time
	for _, s := range spans {
		if epoch.IsZero() || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Ph:   "X",
			TS:   s.Start.Sub(epoch).Microseconds(),
			Dur:  s.Dur.Microseconds(),
			PID:  pid,
			TID:  s.TID,
		}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		events = append(events, ev)
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		Dropped         int           `json:"droppedSpans,omitempty"`
	}{TraceEvents: events, DisplayTimeUnit: "ms", Dropped: t.Dropped()}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
