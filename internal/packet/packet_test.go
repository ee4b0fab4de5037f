package packet

import (
	"testing"
	"testing/quick"
)

func TestTypePredicates(t *testing.T) {
	cases := []struct {
		t           Type
		isResp, dat bool
	}{
		{ReadRequest, false, false},
		{ReadResponse, true, true},
		{WriteRequest, false, true},
		{WriteResponse, true, false},
	}
	for _, c := range cases {
		if c.t.IsResponse() != c.isResp {
			t.Errorf("%v IsResponse = %v", c.t, c.t.IsResponse())
		}
		if c.t.CarriesData() != c.dat {
			t.Errorf("%v CarriesData = %v", c.t, c.t.CarriesData())
		}
	}
}

func TestResponseFor(t *testing.T) {
	if ResponseFor(ReadRequest) != ReadResponse {
		t.Fatal("read request → read response")
	}
	if ResponseFor(WriteRequest) != WriteResponse {
		t.Fatal("write request → write response")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ResponseFor(ReadResponse) did not panic")
		}
	}()
	ResponseFor(ReadResponse)
}

func TestTypeString(t *testing.T) {
	if ReadRequest.String() != "read-req" || WriteResponse.String() != "write-resp" {
		t.Fatal("type names wrong")
	}
	if Type(42).String() == "" {
		t.Fatal("unknown type should still render")
	}
}

// Table 1 of the paper fixes the per-network cl sizes. Ring buffers
// hold 2/3/5/9 flits; mesh cache-line packets are 8/12/20/36 flits.
func TestPaperCacheLineFlits(t *testing.T) {
	ringWant := map[int]int{16: 2, 32: 3, 64: 5, 128: 9}
	meshWant := map[int]int{16: 8, 32: 12, 64: 20, 128: 36}
	for line, want := range ringWant {
		if got := RingSizing.CacheLineFlits(line); got != want {
			t.Errorf("ring cl(%dB) = %d, want %d", line, got, want)
		}
	}
	for line, want := range meshWant {
		if got := MeshSizing.CacheLineFlits(line); got != want {
			t.Errorf("mesh cl(%dB) = %d, want %d", line, got, want)
		}
	}
}

func TestPacketFlitsByType(t *testing.T) {
	// Header-only packets.
	if got := RingSizing.PacketFlits(ReadRequest, 64); got != 1 {
		t.Errorf("ring read-req = %d flits, want 1", got)
	}
	if got := MeshSizing.PacketFlits(WriteResponse, 64); got != 4 {
		t.Errorf("mesh write-resp = %d flits, want 4", got)
	}
	// Data packets.
	if got := RingSizing.PacketFlits(ReadResponse, 64); got != 5 {
		t.Errorf("ring read-resp(64B) = %d flits, want 5", got)
	}
	if got := MeshSizing.PacketFlits(WriteRequest, 128); got != 36 {
		t.Errorf("mesh write-req(128B) = %d flits, want 36", got)
	}
}

func TestPacketFlitsPanicsOnBadLine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive line size")
		}
	}()
	RingSizing.CacheLineFlits(0)
}

func TestFlitHeadTail(t *testing.T) {
	p := &Packet{ID: 1, Flits: 3}
	if f := (Flit{p, 0}); !f.Head() || f.Tail() {
		t.Fatal("flit 0 of 3 should be head only")
	}
	if f := (Flit{p, 2}); f.Head() || !f.Tail() {
		t.Fatal("flit 2 of 3 should be tail only")
	}
	single := &Packet{ID: 2, Flits: 1}
	if f := (Flit{single, 0}); !f.Head() || !f.Tail() {
		t.Fatal("single-flit packet should be head+tail")
	}
}

func TestFIFOOrder(t *testing.T) {
	q := MakeFIFO(4)
	p := &Packet{ID: 1, Flits: 4}
	for i := 0; i < 4; i++ {
		q.Push(Flit{p, i})
	}
	if q.Space() != 0 || q.Len() != 4 {
		t.Fatalf("len/space = %d/%d", q.Len(), q.Space())
	}
	for i := 0; i < 4; i++ {
		f := q.Pop()
		if f.Index != i {
			t.Fatalf("pop %d returned index %d", i, f.Index)
		}
	}
	if !q.Empty() {
		t.Fatal("FIFO should be empty")
	}
}

func TestFIFOPeek(t *testing.T) {
	q := MakeFIFO(2)
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty should report !ok")
	}
	p := &Packet{ID: 1, Flits: 1}
	q.Push(Flit{p, 0})
	f, ok := q.Peek()
	if !ok || f.Pkt != p {
		t.Fatal("peek returned wrong flit")
	}
	if q.Len() != 1 {
		t.Fatal("peek must not remove")
	}
}

func TestFIFOOverflowPanics(t *testing.T) {
	q := MakeFIFO(1)
	q.Push(Flit{&Packet{Flits: 1}, 0})
	defer func() {
		if recover() == nil {
			t.Fatal("push into full FIFO did not panic")
		}
	}()
	q.Push(Flit{&Packet{Flits: 1}, 0})
}

func TestFIFOUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pop from empty FIFO did not panic")
		}
	}()
	q := MakeFIFO(1)
	q.Pop()
}

func TestFIFOZeroCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MakeFIFO(0) did not panic")
		}
	}()
	MakeFIFO(0)
}

// Property: FIFO preserves order and count under arbitrary push/pop
// interleavings.
func TestQuickFIFO(t *testing.T) {
	f := func(ops []bool) bool {
		q := MakeFIFO(8)
		next, expect := 0, 0
		p := &Packet{Flits: 1 << 30}
		for _, push := range ops {
			if push {
				if q.Space() > 0 {
					q.Push(Flit{p, next})
					next++
				}
			} else if !q.Empty() {
				got := q.Pop()
				if got.Index != expect {
					return false
				}
				expect++
			}
		}
		return q.Len() == next-expect
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: packet length is always at least the header and data
// packets are strictly longer than header-only packets.
func TestQuickSizing(t *testing.T) {
	f := func(lineRaw uint8) bool {
		line := int(lineRaw%128) + 1
		for _, s := range []Sizing{RingSizing, MeshSizing} {
			if s.PacketFlits(ReadRequest, line) != s.HeaderFlits {
				return false
			}
			if s.PacketFlits(ReadResponse, line) <= s.HeaderFlits {
				return false
			}
			if s.CacheLineFlits(line) != s.PacketFlits(WriteRequest, line) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The FIFO is a ring: order must hold across the wrap, and a popped
// slot must not keep its packet reachable.
func TestFIFOWrapAndRelease(t *testing.T) {
	q := MakeFIFO(3)
	a := &Packet{ID: 1, Flits: 1 << 30}
	b := &Packet{ID: 2, Flits: 1 << 30}
	for i := 0; i < 2; i++ {
		q.Push(Flit{b, i})
	}
	for i := 0; i < 10; i++ { // head walks the ring several times
		q.Push(Flit{a, i})
		if got := q.Pop(); i >= 2 && got != (Flit{a, i - 2}) {
			t.Fatalf("pop %d = %v", i, got)
		}
	}
	if q.Len() != 2 {
		t.Fatalf("after wrap: len %d", q.Len())
	}
	for i := 8; i < 10; i++ {
		if got := q.Pop(); got != (Flit{a, i}) {
			t.Fatalf("after wrap: pop = %v, want flit %d of #1", got, i)
		}
	}
	for i, f := range q.buf {
		if f.Pkt != nil {
			t.Fatalf("slot %d still references %s after its flit was popped", i, f.Pkt)
		}
	}
}
