package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"ringmesh/internal/obs"
)

// span is one timed call into a layer, recorded by the harness from
// outside the program: what ran, when, under which parent span and as
// part of which op. Spans of one op share its op id.
type span struct {
	Name   string
	ID     int // 1-based; 0 means "no span"
	Parent int // 0 for a root span
	Op     int
	Lane   int // client / goroutine lane, for the Chrome view
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. The nil tracer is
// the tracing-off state: every method no-ops, so the workloads call it
// unconditionally and the untraced pass pays one pointer test.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span now and returns its id.
func (t *tracer) begin(name string, parent, op, lane int) int {
	if t == nil {
		return 0
	}
	return t.beginAt(name, parent, op, lane, time.Now())
}

// beginAt opens a span that started at the given instant (an open-loop
// op starts when it was due, not when the generator got to it).
func (t *tracer) beginAt(name string, parent, op, lane int, start time.Time) int {
	if t == nil {
		return 0
	}
	at := start.Sub(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1,
		Parent: parent, Op: op, Lane: lane, Start: at, End: at})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-measured span: how the server's own job spans
// (fetched from /v1/jobs/{id}/trace) are re-parented under the request
// that caused them.
func (t *tracer) record(name string, parent, op, lane int, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	id := t.beginAt(name, parent, op, lane, start)
	t.mu.Lock()
	t.spans[id-1].End = t.spans[id-1].Start + dur
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is the per-name roll-up of a span set.
type selfTime struct {
	Name  string
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of durations not covered by child spans
}

// selfTimes computes each span's self time — its duration minus the
// part of its interval covered by its children (overlapping children
// are counted once, and a child reaching outside its parent is clipped
// to it) — and sums by span name, largest self time first.
func selfTimes(spans []span) []selfTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*selfTime{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.Total += dur
		st.Self += dur - covered(s.Start, s.End, children[s.ID])
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns the length of [lo, hi) covered by the union of the
// children's intervals.
func covered(lo, hi time.Duration, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	at := lo
	for _, k := range kids {
		s, e := max(k.Start, at), min(k.End, hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// writeSelfTable prints the per-workload self-time table.
func writeSelfTable(w io.Writer, workload string, ops int, rows []selfTime) {
	var all time.Duration
	for _, r := range rows {
		all += r.Self
	}
	fmt.Fprintf(w, "# self time, %s, %d traced ops\n", workload, ops)
	fmt.Fprintf(w, "# %-22s %8s %12s %12s %7s %12s\n", "span", "count", "total_ms", "self_ms", "share", "self_ms/op")
	for _, r := range rows {
		share := 0.0
		if all > 0 {
			share = float64(r.Self) / float64(all)
		}
		fmt.Fprintf(w, "# %-22s %8d %12.3f %12.3f %6.1f%% %12.5f\n",
			r.Name, r.Count, ms(r.Total), ms(r.Self), 100*share, ms(r.Self)/float64(max(ops, 1)))
	}
}

// writeChrome renders the spans as Chrome trace-event JSON through
// internal/obs, one lane per client, with each span's id, parent and
// op id as arguments (load in chrome://tracing or Perfetto).
func writeChrome(w io.Writer, epoch time.Time, spans []span) error {
	tr := obs.NewTrace(len(spans) + 1)
	for _, s := range spans {
		tr.Record(obs.SpanRecord{
			Name: s.Name, TID: s.Lane, Start: epoch.Add(s.Start), Dur: s.End - s.Start,
			Attrs: []obs.Attr{
				{Key: "id", Value: strconv.Itoa(s.ID)},
				{Key: "parent", Value: strconv.Itoa(s.Parent)},
				{Key: "op", Value: strconv.Itoa(s.Op)},
			},
		})
	}
	return tr.WriteChrome(w, 1)
}
