package sim

// Stall forensics: when the watchdog trips, a bare "no progress"
// error tells an operator nothing about *why* 20000 cycles passed
// without a flit moving. The Diagnose hook lets the network model
// contribute a structured snapshot — buffer occupancy, a wait-for
// graph over blocked senders with cycle detection, the oldest stuck
// packets — which Run wraps into the
// returned StallError. errors.Is(err, ErrStalled) keeps working
// through Unwrap, so existing stall handling is unchanged.
//
// The rules every model shares live here: a model's builder opens a
// report with NewStallReport, names what only it knows (non-empty
// buffers, blocked senders, where each stuck packet sits) and ends
// with Finish, which finds the wait-for cycles and
// keeps the oldest packets.

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ringmesh/internal/packet"
)

// BufferStat is one node's buffer occupancy at stall time.
type BufferStat struct {
	// Node names the buffer's owner (a station, queue or router port).
	Node string
	// Flits is the occupancy; Capacity the bound.
	Flits, Capacity int
}

// WaitEdge is one blocked dependency: From cannot make progress until
// To does.
type WaitEdge struct {
	From, To string
	// Why states the blocking condition ("transit buffer full",
	// "IRI transfer queue full", ...).
	Why string
}

// StuckPacket describes one of the oldest packets caught in the stall.
type StuckPacket struct {
	ID       uint64
	Type     string
	Src, Dst int
	// AgeTicks is how long ago the originating transaction was issued.
	AgeTicks int64
	// Where names the buffer holding (part of) the packet.
	Where string
}

// StallReport is the structured forensic snapshot a model builds when
// the watchdog trips (see Engine.Diagnose).
type StallReport struct {
	// Tick is when the watchdog gave up (filled in by the engine).
	Tick int64
	// BufferedFlits is the total in-flight load at stall time.
	BufferedFlits int
	// Buffers lists non-empty buffers, in the model's node order.
	Buffers []BufferStat
	// WaitFor is the blocked-dependency graph among named nodes.
	WaitFor []WaitEdge
	// Cycles are the wait-for cycles found in WaitFor, each a node
	// sequence. A true routing deadlock shows at least one.
	Cycles [][]string
	// Oldest lists the longest-stuck packets, oldest first.
	Oldest []StuckPacket

	// now and seen serve the builder: the stall time packet ages are
	// taken from, and the packets already noted. Finish clears both.
	now  int64
	seen map[*packet.Packet]bool
}

// NewStallReport opens a report a model fills at PM cycle now with
// bufferedFlits in flight.
func NewStallReport(now int64, bufferedFlits int) *StallReport {
	return &StallReport{BufferedFlits: bufferedFlits, now: now, seen: map[*packet.Packet]bool{}}
}

// Buffer records node's occupancy; an empty buffer is left out.
func (r *StallReport) Buffer(node string, flits, capacity int) {
	if flits > 0 {
		r.Buffers = append(r.Buffers, BufferStat{Node: node, Flits: flits, Capacity: capacity})
	}
}

// Wait records that from cannot make progress until to does, unless
// the report already holds that edge (several packets can wait on one
// dependency, and the graph counts dependencies).
func (r *StallReport) Wait(from, to, why string) {
	if e := (WaitEdge{From: from, To: to, Why: why}); !slices.Contains(r.WaitFor, e) {
		r.WaitFor = append(r.WaitFor, e)
	}
}

// Stuck notes packet p as sitting at where, unless p is nil or already
// noted (a worm spans several buffers; the first one visited names it).
func (r *StallReport) Stuck(p *packet.Packet, where string) {
	if p == nil || r.seen[p] {
		return
	}
	r.seen[p] = true
	r.Oldest = append(r.Oldest, StuckPacket{
		ID: p.ID, Type: p.Type.String(), Src: p.Src, Dst: p.Dst,
		AgeTicks: r.now - p.Issue, Where: where,
	})
}

// Finish finds the wait-for cycles, keeps the five oldest packets
// (oldest first; ties stay in the order they were noted) and returns
// the report.
func (r *StallReport) Finish() *StallReport {
	r.Cycles = detectCycles(r.WaitFor)
	sort.SliceStable(r.Oldest, func(i, j int) bool { return r.Oldest[i].AgeTicks > r.Oldest[j].AgeTicks })
	if len(r.Oldest) > 5 {
		r.Oldest = r.Oldest[:5]
	}
	r.now, r.seen = 0, nil
	return r
}

// Summary renders a compact human-readable report (what cmd/ringmesh
// prints to stderr on a stall).
func (r *StallReport) Summary() string {
	if r == nil {
		return "no stall report"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "stall at tick %d: %d flits buffered across %d nodes, %d blocked edges, %d wait-for cycles",
		r.Tick, r.BufferedFlits, len(r.Buffers), len(r.WaitFor), len(r.Cycles))
	for i, cyc := range r.Cycles {
		if i == 2 {
			fmt.Fprintf(&b, "\n  ... %d more cycles", len(r.Cycles)-2)
			break
		}
		fmt.Fprintf(&b, "\n  cycle: %s -> %s", strings.Join(cyc, " -> "), cyc[0])
	}
	for i, p := range r.Oldest {
		if i == 3 {
			break
		}
		fmt.Fprintf(&b, "\n  stuck: #%d %s %d->%d, issued %d ticks ago, at %s",
			p.ID, p.Type, p.Src, p.Dst, p.AgeTicks, p.Where)
	}
	return b.String()
}

// StallDiagnosis is the part of a StallReport a run's result carries
// on the wire: what was buffered, which senders' waits close into
// cycles (a true deadlock) or not (livelock or starvation), and a
// rendering of the rest.
type StallDiagnosis struct {
	// Tick is the engine tick the watchdog tripped at.
	Tick int64 `json:"tick"`
	// BufferedFlits is the network's total buffered load at the stall.
	BufferedFlits int `json:"buffered_flits"`
	// Cycles lists the wait-for cycles found, each as the node names
	// around the loop; a non-empty list names a deadlock's culprits.
	Cycles [][]string `json:"cycles,omitempty"`
	// Summary is a compact human-readable rendering of the full
	// report (buffers, wait-for edges, oldest stuck packets).
	Summary string `json:"summary"`
}

// Diagnosis condenses the report into its wire form (nil for a nil
// report).
func (r *StallReport) Diagnosis() *StallDiagnosis {
	if r == nil {
		return nil
	}
	return &StallDiagnosis{Tick: r.Tick, BufferedFlits: r.BufferedFlits,
		Cycles: r.Cycles, Summary: r.Summary()}
}

// StallError is the watchdog error carrying the forensic snapshot. It
// unwraps to ErrStalled, so errors.Is(err, ErrStalled) matches.
type StallError struct {
	Tick   int64
	Report *StallReport
}

// Error summarizes the stall in one line; the full report is in
// Report (see StallReport.Summary).
func (e *StallError) Error() string {
	if e.Report == nil {
		return fmt.Sprintf("sim: no progress (deadlock or livelock) at tick %d", e.Tick)
	}
	return fmt.Sprintf("sim: no progress (deadlock or livelock) at tick %d (%d flits buffered, %d wait-for cycles)",
		e.Tick, e.Report.BufferedFlits, len(e.Report.Cycles))
}

// Unwrap makes errors.Is(err, ErrStalled) hold.
func (e *StallError) Unwrap() error { return ErrStalled }

// detectCycles finds elementary cycles in the wait-for graph by DFS
// (bounded at 8 distinct cycles — enough to name the deadlock without
// enumerating a dense graph's exponential cycle space). Deterministic:
// nodes are visited in first-appearance order of the edge list.
func detectCycles(edges []WaitEdge) [][]string {
	const limit = 8
	adj := map[string][]string{}
	var nodes []string
	seenNode := map[string]bool{}
	addNode := func(n string) {
		if !seenNode[n] {
			seenNode[n] = true
			nodes = append(nodes, n)
		}
	}
	for _, e := range edges {
		addNode(e.From)
		addNode(e.To)
		adj[e.From] = append(adj[e.From], e.To)
	}

	var cycles [][]string
	seenCycle := map[string]bool{}
	state := map[string]int{} // 0 = unvisited, 1 = on stack, 2 = done
	var stack []string
	var dfs func(n string)
	dfs = func(n string) {
		state[n] = 1
		stack = append(stack, n)
		for _, m := range adj[n] {
			if len(cycles) >= limit {
				break
			}
			switch state[m] {
			case 0:
				dfs(m)
			case 1:
				i := len(stack) - 1
				for i >= 0 && stack[i] != m {
					i--
				}
				cyc := append([]string(nil), stack[i:]...)
				if key := canonicalCycle(cyc); !seenCycle[key] {
					seenCycle[key] = true
					cycles = append(cycles, cyc)
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[n] = 2
	}
	for _, n := range nodes {
		if state[n] == 0 && len(cycles) < limit {
			dfs(n)
		}
	}
	return cycles
}

// canonicalCycle keys a cycle independent of its rotation so the same
// loop reached from two entry points is reported once.
func canonicalCycle(cyc []string) string {
	best := 0
	for i := 1; i < len(cyc); i++ {
		if cyc[i] < cyc[best] {
			best = i
		}
	}
	rotated := make([]string, 0, len(cyc))
	rotated = append(rotated, cyc[best:]...)
	rotated = append(rotated, cyc[:best]...)
	return strings.Join(rotated, "\x00")
}
