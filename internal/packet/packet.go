// Package packet defines the memory-transaction packets exchanged by
// processing modules and their flit-level view on the wire.
//
// The paper simulates four packet types — read request, read response,
// write request and write response — transferred as contiguous
// sequences of flits under wormhole switching. Packet sizes follow the
// paper's channel-width assumptions: hierarchical rings have 128-bit
// channels and 1-flit headers; meshes have 32-bit channels and 4-flit
// headers (Section 2.2 and Table 1).
package packet

import "fmt"

// Type identifies one of the four simulated transaction packet kinds.
type Type uint8

const (
	// ReadRequest asks the target memory for a cache line.
	ReadRequest Type = iota
	// ReadResponse carries a cache line back to the requester.
	ReadResponse
	// WriteRequest carries a cache line to the target memory.
	WriteRequest
	// WriteResponse acknowledges a write.
	WriteResponse
)

// String returns the conventional short name of the packet type.
func (t Type) String() string {
	switch t {
	case ReadRequest:
		return "read-req"
	case ReadResponse:
		return "read-resp"
	case WriteRequest:
		return "write-req"
	case WriteResponse:
		return "write-resp"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// IsResponse reports whether the type travels memory → processor.
func (t Type) IsResponse() bool { return t == ReadResponse || t == WriteResponse }

// CarriesData reports whether the packet includes a cache-line payload.
func (t Type) CarriesData() bool { return t == ReadResponse || t == WriteRequest }

// ResponseFor returns the response type matching a request type. It
// panics when t is not a request.
func ResponseFor(t Type) Type {
	switch t {
	case ReadRequest:
		return ReadResponse
	case WriteRequest:
		return WriteResponse
	default:
		panic("packet: ResponseFor on non-request type " + t.String())
	}
}

// Sizing captures a network's flit geometry: how wide a flit is and how
// many flits of header each packet carries.
type Sizing struct {
	// FlitBytes is the channel width in bytes (one flit per cycle).
	FlitBytes int
	// HeaderFlits is the number of header flits per packet.
	HeaderFlits int
}

// RingSizing is the paper's hierarchical-ring geometry: 128-bit
// channels (16 bytes/flit) and single-flit headers.
var RingSizing = Sizing{FlitBytes: 16, HeaderFlits: 1}

// MeshSizing is the paper's mesh geometry under the same pin budget:
// 32-bit channels (4 bytes/flit) and 4-flit headers.
var MeshSizing = Sizing{FlitBytes: 4, HeaderFlits: 4}

// PacketFlits returns the length in flits of a packet of type t
// carrying lineBytes of cache line when it has data. Header-only
// packets are exactly HeaderFlits long.
func (s Sizing) PacketFlits(t Type, lineBytes int) int {
	if !t.CarriesData() {
		return s.HeaderFlits
	}
	return s.HeaderFlits + s.dataFlits(lineBytes)
}

// CacheLineFlits returns cl: the flits needed for a packet carrying a
// full cache line (header + payload). For rings this is 2/3/5/9 and
// for meshes 8/12/20/36 flits at 16/32/64/128-byte lines.
func (s Sizing) CacheLineFlits(lineBytes int) int {
	return s.HeaderFlits + s.dataFlits(lineBytes)
}

func (s Sizing) dataFlits(lineBytes int) int {
	if lineBytes <= 0 {
		panic("packet: non-positive cache line size")
	}
	return (lineBytes + s.FlitBytes - 1) / s.FlitBytes
}

// Packet is one memory transaction packet in flight. Flits are not
// materialized individually; buffers and links track (packet, flit
// index) pairs through the Flit type.
type Packet struct {
	// ID is unique within a simulation run.
	ID uint64
	// Type is the transaction kind.
	Type Type
	// Src and Dst are PM indices (DFS order for rings, row-major for
	// meshes).
	Src, Dst int
	// Flits is the total length of the packet on this network.
	Flits int
	// Issue is the cycle the originating *transaction* was issued by
	// the processor; responses inherit it from their request so that
	// round-trip latency is response-arrival minus Issue.
	Issue int64
}

// String renders a compact description for traces and test failures.
func (p *Packet) String() string {
	return fmt.Sprintf("#%d %s %d→%d (%d flits)", p.ID, p.Type, p.Src, p.Dst, p.Flits)
}

// Flit is a flit-granularity view into a packet: the packet pointer
// plus this flit's position.
type Flit struct {
	Pkt   *Packet
	Index int
}

// Head reports whether this is the packet's first (routing) flit.
func (f Flit) Head() bool { return f.Index == 0 }

// Tail reports whether this is the packet's last flit (a single-flit
// packet is both head and tail).
func (f Flit) Tail() bool { return f.Index == f.Pkt.Flits-1 }

// String renders the flit for traces.
func (f Flit) String() string {
	role := ""
	switch {
	case f.Head() && f.Tail():
		role = " (head+tail)"
	case f.Head():
		role = " (head)"
	case f.Tail():
		role = " (tail)"
	}
	return fmt.Sprintf("%s flit %d/%d%s", f.Pkt, f.Index+1, f.Pkt.Flits, role)
}

// FIFO is a bounded flit queue, the plain form of a network buffer. No
// network model keeps its queues in FIFOs (each keeps windows over one
// flit slab, with the routing decoded at push); the reference ticks
// the ring and mesh tests check them against (ref_test.go in each
// package) do. The bound is in flits. A FIFO never interleaves: flits
// are enqueued in arrival order and the network's acceptance rules
// guarantee packets arrive contiguously per link.
type FIFO struct {
	cap int
	// buf is a ring of cap slots, allocated on the first push (many
	// FIFOs — idle VCs, unused IRI queues — never hold a flit); the n
	// buffered flits start at head and wrap.
	buf     []Flit
	head, n int
}

// MakeFIFO returns a FIFO holding at most capacity flits, by value, for
// owners that keep their queues inside their own struct. Use the result
// in place: a copy of a FIFO that has held a flit shares its storage.
func MakeFIFO(capacity int) FIFO {
	if capacity <= 0 {
		panic("packet: FIFO capacity must be positive")
	}
	return FIFO{cap: capacity}
}

// Len returns the number of buffered flits.
func (q *FIFO) Len() int { return q.n }

// Space returns the free capacity in flits.
func (q *FIFO) Space() int { return q.cap - q.n }

// Empty reports whether the FIFO holds no flits.
func (q *FIFO) Empty() bool { return q.n == 0 }

// Push appends a flit. It panics if the FIFO is full — callers must
// check Space first; a violation indicates a flow-control bug.
func (q *FIFO) Push(f Flit) {
	if q.Space() <= 0 {
		panic("packet: push into full FIFO (flow-control violation)")
	}
	if q.buf == nil {
		q.buf = make([]Flit, q.cap)
	}
	q.buf[q.slot(q.n)] = f
	q.n++
}

// slot returns the ring position of the k-th buffered flit.
func (q *FIFO) slot(k int) int {
	if i := q.head + k; i < q.cap {
		return i
	}
	return q.head + k - q.cap
}

// Peek returns the head flit without removing it. ok is false when
// empty.
func (q *FIFO) Peek() (f Flit, ok bool) {
	if q.n == 0 {
		return Flit{}, false
	}
	return q.buf[q.head], true
}

// Pop removes and returns the head flit. It panics when empty.
func (q *FIFO) Pop() Flit {
	if q.n == 0 {
		panic("packet: pop from empty FIFO")
	}
	f := q.buf[q.head]
	q.buf[q.head] = Flit{} // do not pin the popped packet while the FIFO idles
	q.head = q.slot(1)
	q.n--
	return f
}
