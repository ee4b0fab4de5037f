// Package trace captures per-packet lifecycle events from the
// simulators — issue, per-hop movement, exits and delivery — for
// debugging and for the cmd/ringmesh -trace flag. Recording is
// optional and nil-safe: a nil *Recorder ignores every call. Callers
// pass a ready-made "where" string — the models build theirs once, when
// a recorder is attached — so an event never formats one and a run with
// tracing off allocates nothing for it.
package trace

import (
	"fmt"
	"io"

	"ringmesh/internal/packet"
)

// Kind classifies a lifecycle event.
type Kind uint8

const (
	// Issue: the processor generated the transaction.
	Issue Kind = iota
	// Inject: the packet entered the network fabric.
	Inject
	// Hop: a flit (wormhole) or slot (slotted) moved one stage.
	Hop
	// Exit: the packet left a ring through an IRI queue.
	Exit
	// Deliver: the packet fully arrived at its destination PM.
	Deliver
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Issue:
		return "issue"
	case Inject:
		return "inject"
	case Hop:
		return "hop"
	case Exit:
		return "exit"
	case Deliver:
		return "deliver"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one recorded lifecycle step.
type Event struct {
	// Tick is the engine tick the event happened at.
	Tick int64
	// Kind classifies the event.
	Kind Kind
	// Packet identifies the packet (packet.Packet.ID).
	Packet uint64
	// Type is the packet's transaction type.
	Type packet.Type
	// Src, Dst are the packet's endpoints.
	Src, Dst int
	// Where locates the event ("nic3", "router 5 east", ...).
	Where string
}

// String renders the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("t=%-6d %-8s #%d %s %d->%d @ %s",
		e.Tick, e.Kind, e.Packet, e.Type, e.Src, e.Dst, e.Where)
}

// DefaultCap bounds a Recorder that was not given an explicit
// capacity (hop events are plentiful).
const DefaultCap = 1 << 20

// Recorder accumulates events up to a capacity. Once full it counts
// and drops new events, keeping the oldest — the run's beginning.
type Recorder struct {
	// Cap bounds retained events (0 = DefaultCap).
	Cap int
	// OnlyPacket, when non-zero, restricts recording to one packet id.
	OnlyPacket uint64

	events  []Event
	dropped int64
}

// Record appends one event. Nil receivers and filtered packets are
// ignored.
func (r *Recorder) Record(tick int64, kind Kind, p *packet.Packet, where string) {
	if r == nil || p == nil {
		return
	}
	if r.OnlyPacket != 0 && p.ID != r.OnlyPacket {
		return
	}
	max := r.Cap
	if max <= 0 {
		max = DefaultCap
	}
	if len(r.events) >= max {
		r.dropped++
		return
	}
	if len(r.events) == cap(r.events) {
		// Double: append grows a large slice by a quarter, which clears
		// and copies a long trace five times over.
		grown := make([]Event, len(r.events), min(max, 2*cap(r.events)+1024))
		copy(grown, r.events)
		r.events = grown
	}
	r.events = append(r.events, Event{
		Tick: tick, Kind: kind, Packet: p.ID, Type: p.Type,
		Src: p.Src, Dst: p.Dst, Where: where,
	})
}

// Events returns a copy of the recorded events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return append(make([]Event, 0, len(r.events)), r.events...)
}

// Dropped reports how many events exceeded the capacity.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Write renders all retained events oldest-first, one per line,
// followed by a note counting the events dropped past the capacity
// bound.
func (r *Recorder) Write(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, e := range r.events {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	if r.dropped > 0 {
		if _, err := fmt.Fprintf(w, "(%d events dropped beyond capacity; oldest retained)\n", r.dropped); err != nil {
			return err
		}
	}
	return nil
}
