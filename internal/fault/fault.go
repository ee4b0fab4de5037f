// Package fault defines the deterministic, seed-driven fault-injection
// subsystem and owns every rule of it: the Plan DSL and its canonical
// rendering, materialization over a model's targets, the Schedule that
// installs each event's gates on time, and the Gate rule a model asks
// before an output acts.
//
// The design constraints, in order:
//
//   - Determinism. A (plan, seed, topology) triple must reproduce the
//     exact same fault schedule on every run, on every machine, so
//     that a degraded-mode result is as repeatable as a fault-free
//     one. Random generation therefore uses the simulator's own
//     SplitMix64 streams (internal/rng), never math/rand or time.
//   - Zero cost when disabled. A nil or empty plan must leave the
//     models' hot paths bit-identical to a build without the
//     subsystem; golden_test.go enforces this. A model holds one nil
//     *Gates per station or router, and an empty plan builds no
//     Schedule at all.
//   - Model independence. Events speak in (node, port, cycle) terms;
//     a model only describes its targets (Targets) and asks its gates,
//     passing its own cycle index.
//
// Times are PM clock cycles, the engine's tick.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"ringmesh/internal/rng"
)

// Kind classifies a fault event.
type Kind uint8

const (
	// LinkStutter kills a node's output link outright for the event's
	// duration: no flit (or slot operation) crosses it. Models a
	// transient link outage / retrain.
	LinkStutter Kind = iota
	// NodeSlowdown lets a node act only every Factor-th opportunity
	// for the duration: a NIC/IRI (or whole router) running degraded.
	NodeSlowdown
	// PortDegrade is NodeSlowdown confined to one output port —
	// meaningful on the mesh (ports 0..3 are the four neighbour
	// directions); ring stations have a single output, so it behaves
	// like NodeSlowdown there.
	PortDegrade
	numKinds
)

// String names the kind in the DSL's vocabulary.
func (k Kind) String() string {
	switch k {
	case LinkStutter:
		return "stutter"
	case NodeSlowdown:
		return "slowdown"
	case PortDegrade:
		return "degrade"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// parseKind inverts String.
func parseKind(s string) (Kind, error) {
	switch s {
	case "stutter":
		return LinkStutter, nil
	case "slowdown":
		return NodeSlowdown, nil
	case "degrade":
		return PortDegrade, nil
	default:
		return 0, fmt.Errorf("fault: unknown kind %q (want stutter, slowdown or degrade)", s)
	}
}

// Event is one scheduled fault.
type Event struct {
	// Kind selects the degradation mode.
	Kind Kind
	// Node is the model-specific target index: a station index for the
	// ring family (see the model's station ordering), a router id for
	// the mesh.
	Node int
	// Port is the output port for PortDegrade (mesh: 0..3, the four
	// neighbour directions); ignored by the other kinds.
	Port int
	// Start is the PM clock cycle the fault begins.
	Start int64
	// Duration is how many PM cycles it lasts (> 0).
	Duration int64
	// Factor is the slowdown divisor for NodeSlowdown/PortDegrade:
	// the target acts once every Factor opportunities (>= 2).
	Factor int
}

// End returns the first cycle the fault is no longer active.
func (e Event) End() int64 { return e.Start + e.Duration }

// slowsDown reports whether the kind uses Factor.
func (e Event) slowsDown() bool { return e.Kind == NodeSlowdown || e.Kind == PortDegrade }

// Validate checks the event against a model with nodes fault targets
// and ports output ports per target.
func (e Event) Validate(nodes, ports int) error {
	if e.Kind >= numKinds {
		return fmt.Errorf("fault: event %s: unknown kind", e)
	}
	if e.Node < 0 || e.Node >= nodes {
		return fmt.Errorf("fault: event %s: node %d out of range [0,%d)", e, e.Node, nodes)
	}
	if e.Kind == PortDegrade && (e.Port < 0 || e.Port >= ports) {
		return fmt.Errorf("fault: event %s: port %d out of range [0,%d)", e, e.Port, ports)
	}
	if e.Start < 0 {
		return fmt.Errorf("fault: event %s: negative start", e)
	}
	if e.Duration <= 0 {
		return fmt.Errorf("fault: event %s: duration must be > 0", e)
	}
	if e.slowsDown() && e.Factor < 2 {
		return fmt.Errorf("fault: event %s: slowdown factor must be >= 2", e)
	}
	return nil
}

// String renders the event in the Parse DSL, round-trippable.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%d+%d:node=%d", e.Kind, e.Start, e.Duration, e.Node)
	if e.Kind == PortDegrade {
		fmt.Fprintf(&b, ",port=%d", e.Port)
	}
	if e.slowsDown() {
		fmt.Fprintf(&b, ",factor=%d", e.Factor)
	}
	return b.String()
}

// GenSpec asks for Events additional random faults, derived
// deterministically from Seed over the model's actual target count at
// Materialize time.
type GenSpec struct {
	// Seed drives the SplitMix64 stream the events are drawn from.
	Seed uint64
	// Events is how many faults to generate.
	Events int
	// Horizon bounds the start cycles: uniform in [0, Horizon).
	Horizon int64
	// MeanDuration centers the duration draw: uniform in
	// [1, 2*MeanDuration] (0 selects the default 64 cycles).
	MeanDuration int64
	// MaxFactor bounds slowdown factors: uniform in [2, MaxFactor]
	// (0 selects the default 4).
	MaxFactor int
}

// MaxGenEvents bounds a generator's events: a plan is materialized in
// full before the run starts.
const MaxGenEvents = 65536

// Validate checks the generation spec: besides the ranges, every event
// it can draw must end within int64 (start <= horizon-1, duration <=
// 2*mean-dur).
func (g GenSpec) Validate() error {
	if g.Events < 0 || g.Events > MaxGenEvents {
		return fmt.Errorf("fault: rand: events = %d outside [0,%d]", g.Events, MaxGenEvents)
	}
	if g.Events > 0 && g.Horizon <= 0 {
		return fmt.Errorf("fault: rand: horizon must be > 0 to place %d events", g.Events)
	}
	if g.MeanDuration < 0 || g.MaxFactor < 0 || (g.MaxFactor > 0 && g.MaxFactor < 2) {
		return fmt.Errorf("fault: rand: bad mean-dur %d / max-factor %d", g.MeanDuration, g.MaxFactor)
	}
	if d := g.withDefaults(); d.MeanDuration > (math.MaxInt64-max(d.Horizon-1, 0))/2 {
		return fmt.Errorf("fault: rand: horizon %d + 2*mean-dur %d overflows int64", d.Horizon, d.MeanDuration)
	}
	return nil
}

// withDefaults resolves a zero MeanDuration to 64 cycles and a zero
// MaxFactor to 4.
func (g GenSpec) withDefaults() GenSpec {
	if g.MeanDuration == 0 {
		g.MeanDuration = 64
	}
	if g.MaxFactor == 0 {
		g.MaxFactor = 4
	}
	return g
}

// generate draws the spec's events for a model with nodes targets and
// ports output ports each. Deterministic in (spec, nodes, ports).
func (g GenSpec) generate(nodes, ports int) []Event {
	g = g.withDefaults()
	src := rng.New(g.Seed)
	out := make([]Event, 0, g.Events)
	for i := 0; i < g.Events; i++ {
		e := Event{
			Kind:     Kind(src.Intn(int(numKinds))),
			Node:     src.Intn(nodes),
			Start:    int64(src.Intn(int(g.Horizon))),
			Duration: 1 + int64(src.Intn(int(2*g.MeanDuration))),
		}
		if e.Kind == PortDegrade {
			e.Port = src.Intn(ports)
		}
		if e.slowsDown() {
			e.Factor = 2 + src.Intn(g.MaxFactor-1)
		}
		out = append(out, e)
	}
	return out
}

// Plan is a fault schedule: explicit events, plus optionally a
// seed-driven generator resolved against the concrete model at
// Materialize time.
type Plan struct {
	// Events are the explicitly scheduled faults.
	Events []Event
	// Gen, when non-nil, adds deterministically generated faults.
	Gen *GenSpec
}

// Empty reports whether the plan schedules nothing (nil-safe). An
// empty plan still exercises the injection capability — and must be
// observationally free (golden tests enforce bit-identical results).
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Events) == 0 && (p.Gen == nil || p.Gen.Events == 0))
}

// Materialize resolves the plan against a model with nodes fault
// targets and ports output ports per target: validates explicit
// events, draws the generated ones, and returns the union sorted by
// start cycle (ties keep explicit-then-generated order). Repeated
// calls with the same arguments return identical schedules.
func (p *Plan) Materialize(nodes, ports int) ([]Event, error) {
	if p == nil {
		return nil, nil
	}
	if nodes <= 0 || ports <= 0 {
		return nil, fmt.Errorf("fault: a model with %d targets of %d ports supports no fault injection", nodes, ports)
	}
	out := make([]Event, 0, len(p.Events))
	for _, e := range p.Events {
		if err := e.Validate(nodes, ports); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	if p.Gen != nil {
		if err := p.Gen.Validate(); err != nil {
			return nil, err
		}
		for _, e := range p.Gen.generate(nodes, ports) {
			if err := e.Validate(nodes, ports); err != nil {
				return nil, fmt.Errorf("fault: generated event invalid: %w", err)
			}
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out, nil
}

// Canonical renders the plan in the Parse DSL, the form CacheKey
// hashes: "" for every plan that schedules nothing (nil, "none", a
// generator asked for no events), and otherwise the events in plan
// order, since Materialize breaks start ties by it, then the generator
// with its defaults spelled out, so that elided and explicit spellings
// render equal.
func (p *Plan) Canonical() string {
	if p.Empty() {
		return ""
	}
	parts := make([]string, 0, len(p.Events)+1)
	for _, e := range p.Events {
		parts = append(parts, e.String())
	}
	if p.Gen != nil && p.Gen.Events > 0 {
		g := p.Gen.withDefaults()
		parts = append(parts, fmt.Sprintf("rand:events=%d,seed=%d,horizon=%d,mean-dur=%d,max-factor=%d",
			g.Events, g.Seed, g.Horizon, g.MeanDuration, g.MaxFactor))
	}
	return strings.Join(parts, ";")
}

// Parse reads the fault-plan DSL (the -fault-plan flag syntax):
//
//	plan  := item (';' item)*
//	item  := event | rand | "none"
//	event := kind '@' start '+' duration [':' kv (',' kv)*]
//	kind  := "stutter" | "slowdown" | "degrade"
//	kv    := ("node" | "port" | "factor") '=' int
//	rand  := "rand:" kv (',' kv)*   with keys events, seed, horizon,
//	                                mean-dur, max-factor
//
// Examples:
//
//	stutter@1000+200:node=3
//	slowdown@500+1000:node=0,factor=4;degrade@0+300:node=5,port=1,factor=2
//	rand:events=8,seed=42,horizon=10000
//	none                               (exercise the subsystem, no faults)
//
// "none" yields an empty, non-nil plan: the injection path runs but
// schedules nothing, which golden tests pin as bit-identical to a
// fault-free run.
func Parse(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("fault: empty plan (use \"none\" for an explicit no-fault plan)")
	}
	p := &Plan{}
	for _, item := range strings.Split(s, ";") {
		item = strings.TrimSpace(item)
		switch {
		case item == "" || item == "none":
			// keep the plan non-nil but schedule nothing
		case strings.HasPrefix(item, "rand:"):
			if p.Gen != nil {
				return nil, fmt.Errorf("fault: multiple rand: items in one plan")
			}
			g, err := parseGen(strings.TrimPrefix(item, "rand:"))
			if err != nil {
				return nil, err
			}
			p.Gen = g
		default:
			e, err := parseEvent(item)
			if err != nil {
				return nil, err
			}
			p.Events = append(p.Events, e)
		}
	}
	return p, nil
}

// parseEvent reads one "kind@start+dur[:k=v,...]" item.
func parseEvent(item string) (Event, error) {
	head, kvs, _ := strings.Cut(item, ":")
	kindStr, when, ok := strings.Cut(head, "@")
	if !ok {
		return Event{}, fmt.Errorf("fault: event %q: want kind@start+duration", item)
	}
	kind, err := parseKind(strings.TrimSpace(kindStr))
	if err != nil {
		return Event{}, err
	}
	startStr, durStr, ok := strings.Cut(when, "+")
	if !ok {
		return Event{}, fmt.Errorf("fault: event %q: want start+duration after @", item)
	}
	start, err1 := strconv.ParseInt(strings.TrimSpace(startStr), 10, 64)
	dur, err2 := strconv.ParseInt(strings.TrimSpace(durStr), 10, 64)
	if err1 != nil || err2 != nil {
		return Event{}, fmt.Errorf("fault: event %q: bad start/duration", item)
	}
	if dur > 0 && start > math.MaxInt64-dur {
		return Event{}, fmt.Errorf("fault: event %q: start+duration overflows int64", item)
	}
	e := Event{Kind: kind, Start: start, Duration: dur, Node: -1}
	if kvs != "" {
		for _, kv := range strings.Split(kvs, ",") {
			key, valStr, ok := strings.Cut(kv, "=")
			if !ok {
				return Event{}, fmt.Errorf("fault: event %q: bad key=value %q", item, kv)
			}
			val, err := strconv.Atoi(strings.TrimSpace(valStr))
			if err != nil {
				return Event{}, fmt.Errorf("fault: event %q: %q is not an integer", item, valStr)
			}
			switch key = strings.TrimSpace(key); {
			case key == "node":
				e.Node = val
			case key == "port" && kind == PortDegrade:
				e.Port = val
			case key == "factor" && e.slowsDown():
				e.Factor = val
			case key == "port" || key == "factor":
				return Event{}, fmt.Errorf("fault: event %q: %s takes no %s=", item, kind, key)
			default:
				return Event{}, fmt.Errorf("fault: event %q: unknown key %q", item, key)
			}
		}
	}
	if e.Node < 0 {
		return Event{}, fmt.Errorf("fault: event %q: missing node=", item)
	}
	if e.slowsDown() && e.Factor == 0 {
		e.Factor = 2
	}
	return e, nil
}

// parseGen reads the "rand:" item's key=value list.
func parseGen(kvs string) (*GenSpec, error) {
	g := &GenSpec{}
	for _, kv := range strings.Split(kvs, ",") {
		key, valStr, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("fault: rand: bad key=value %q", kv)
		}
		val, err := strconv.ParseInt(strings.TrimSpace(valStr), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: rand: %q is not an integer", valStr)
		}
		switch strings.TrimSpace(key) {
		case "events":
			g.Events = int(val)
		case "seed":
			g.Seed = uint64(val)
		case "horizon":
			g.Horizon = val
		case "mean-dur":
			g.MeanDuration = val
		case "max-factor":
			g.MaxFactor = int(val)
		default:
			return nil, fmt.Errorf("fault: rand: unknown key %q", key)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.Events == 0 {
		return nil, fmt.Errorf("fault: rand: missing events=")
	}
	return g, nil
}
