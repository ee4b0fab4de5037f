package trace

import (
	"bytes"
	"strings"
	"testing"

	"ringmesh/internal/packet"
)

func pkt(id uint64) *packet.Packet {
	return &packet.Packet{ID: id, Type: packet.ReadRequest, Src: 0, Dst: 3, Flits: 1}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(1, Issue, pkt(1), "pm0") // must not panic
	if r.Events() != nil {
		t.Fatal("nil recorder should return a nil slice")
	}
	if r.Dropped() != 0 {
		t.Fatal("nil recorder dropped count")
	}
	if err := r.Write(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordAndTimeline(t *testing.T) {
	r := &Recorder{}
	r.Record(1, Issue, pkt(1), "pm0")
	r.Record(2, Hop, pkt(1), "nic0->nic1")
	r.Record(3, Deliver, pkt(1), "pm3")
	r.Record(2, Issue, pkt(2), "pm1")
	if len(r.Events()) != 4 {
		t.Fatalf("events = %d", len(r.Events()))
	}
	// Events keep recording order, so one packet's timeline is a filter.
	var tl []Event
	for _, e := range r.Events() {
		if e.Packet == 1 {
			tl = append(tl, e)
		}
	}
	if len(tl) != 3 || tl[0].Kind != Issue || tl[2].Kind != Deliver {
		t.Fatalf("timeline = %v", tl)
	}
}

func TestFilter(t *testing.T) {
	r := &Recorder{OnlyPacket: 2}
	r.Record(1, Issue, pkt(1), "pm0")
	r.Record(1, Issue, pkt(2), "pm1")
	if len(r.Events()) != 1 || r.Events()[0].Packet != 2 {
		t.Fatalf("filter failed: %v", r.Events())
	}
}

func TestCapacityDrop(t *testing.T) {
	r := &Recorder{Cap: 2}
	for i := 0; i < 5; i++ {
		r.Record(int64(i), Hop, pkt(1), "x")
	}
	if len(r.Events()) != 2 || r.Dropped() != 3 {
		t.Fatalf("events=%d dropped=%d", len(r.Events()), r.Dropped())
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3 events dropped") {
		t.Fatalf("drop note missing:\n%s", buf.String())
	}
}

func TestEventString(t *testing.T) {
	e := Event{Tick: 7, Kind: Hop, Packet: 9, Type: packet.ReadResponse, Src: 1, Dst: 2, Where: "nic1->nic2"}
	s := e.String()
	for _, want := range []string{"t=7", "hop", "#9", "read-resp", "1->2", "nic1->nic2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{Issue: "issue", Inject: "inject", Hop: "hop", Exit: "exit", Deliver: "deliver"} {
		if k.String() != want {
			t.Fatalf("%d = %q", k, k.String())
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should render")
	}
}
