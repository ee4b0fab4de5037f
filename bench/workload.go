package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"
)

// env is what a workload instance is built from. The seed generates
// the inputs; the program under test only ever sees those inputs.
type env struct {
	seed    uint64
	seconds float64 // nominal measured-phase length; fixed warm-up counts scale with it
	tmp     string  // scratch directory inside the checkout (cache and journal dirs)
}

// block is one stretch of a measured phase holding whole ops only (with
// concurrent callers: the ops completed within it). The rates a run
// reports are medians over its blocks, so a few seconds in which the
// shared host was busy with someone else move them little.
type block struct {
	wall, cpu time.Duration
	ops       int
	pmcycles  float64
}

// measurement is what one measured phase of a workload produced.
type measurement struct {
	elapsed   time.Duration
	cpu       time.Duration // getrusage user+sys over the phase
	latencies []float64     // ms, one per latency sample, in completion order
	// series holds the latency samples per concurrent caller, each in
	// completion order, when there is more than one caller (nil: the one
	// series is latencies).
	series    [][]float64
	blocks    []block
	attempted int
	failed    int // ops that errored, were refused or failed a correctness check
	overLimit int // ops over the workload's latency limit (failed ops included)
	pmcycles  float64
	// outputs are the simulated statistics by stable key (op digest,
	// figure CSV digest, best geometry): what must not move when only
	// host speed was supposed to change.
	outputs map[string]string
	// layer holds numbers the workload itself observes about single
	// layers (server counters and spans, generator lag).
	layer map[string]float64
	notes []string // first few failure descriptions
}

// meter cuts a measured phase into blocks from the measurement's
// running totals (attempted, pmcycles).
type meter struct {
	m        *measurement
	start    time.Time
	cpu0     time.Duration
	at       time.Time // start of the open block
	cpu      time.Duration
	ops      int
	pmcycles float64
}

// startMeter starts the phase clock and the first block.
func (m *measurement) startMeter() *meter {
	now, cpu := time.Now(), cpuTime()
	return &meter{m: m, start: now, cpu0: cpu, at: now, cpu: cpu}
}

// cut closes the open block at an op boundary, if it holds any op.
func (k *meter) cut() { k.cutAt(k.m.attempted, k.m.pmcycles) }

// cutAt is cut for a phase whose running totals live elsewhere (the
// concurrent callers' shared counters).
func (k *meter) cutAt(ops int, pmcycles float64) {
	if ops == k.ops {
		return
	}
	now, cpu := time.Now(), cpuTime()
	k.m.blocks = append(k.m.blocks, block{wall: now.Sub(k.at), cpu: cpu - k.cpu,
		ops: ops - k.ops, pmcycles: pmcycles - k.pmcycles})
	k.at, k.cpu, k.ops, k.pmcycles = now, cpu, ops, pmcycles
}

// cutAfter cuts once the open block is at least span long.
func (k *meter) cutAfter(span time.Duration) {
	if time.Since(k.at) >= span {
		k.cut()
	}
}

// stop ends the phase clock.
func (k *meter) stop() {
	k.m.elapsed, k.m.cpu = time.Since(k.start), cpuTime()-k.cpu0
}

// finish closes the last block and ends the phase.
func (k *meter) finish() {
	k.cut()
	k.stop()
}

// blockSpan is how long a block of a time-cut workload lasts: a
// twentieth of the phase.
func blockSpan(d time.Duration) time.Duration { return d / 20 }

func (m *measurement) fail(format string, args ...any) { m.failN(1, format, args...) }

// failN counts n ops as failed for one described reason.
func (m *measurement) failN(n int, format string, args ...any) {
	m.failed += n
	if len(m.notes) < 8 {
		m.notes = append(m.notes, fmt.Sprintf(format, args...))
	}
}

func (m *measurement) output(key, value string) {
	if m.outputs == nil {
		m.outputs = map[string]string{}
	}
	m.outputs[key] = value
}

// load is one instance of a benchmark workload: set up once,
// measured once or twice (the traced pass measures untraced first),
// then closed.
type load interface {
	// setup does everything that precedes the first timed op: system
	// builds, server boot, cache pre-warm, candidate enumeration, and
	// the determinism re-run. Its duration is setup_s.
	setup() error
	// measure runs whole ops for about d, recording a span around every
	// call into a layer when tr is non-nil.
	measure(d time.Duration, tr *tracer) (*measurement, error)
	// close stops everything setup started and waits for it.
	close()
}

// workloadDef is a workload's fixed definition.
type workloadDef struct {
	name string
	loop string // closed or open, with client count or rate
	why  string
	// tail is the percentile op_ms_tail reports: the highest the
	// workload's sample count supports at the nominal run length.
	tail float64
	// open marks the open-loop workload: its op rate is set by the
	// schedule, so tracing overhead shows in latency, not in ops per
	// second.
	open bool
	// limitMS is the latency limit of a serving workload (0: none).
	limitMS float64
	// setupReps is how many fresh set-ups a run times; setup_s is their
	// median.
	setupReps int
	// keepAwake runs the workload with every vCPU kept out of the idle
	// loop (see keepAwake): set for the one workload that sleeps most
	// of the time.
	keepAwake bool
	// gcPercent, when set, is the GOGC value the workload runs under
	// (see serve-hot).
	gcPercent int
	new       func(env) load
}

var workloads = []workloadDef{
	{
		name: "ring-sim", loop: "closed, 1 caller", tail: 0.90, setupReps: 5,
		why: "station/IRI tick, PM, generator and engine do all the work; no mesh or serve code runs",
		new: func(e env) load { return newSimLoad(e, ringSim) },
	},
	{
		name: "mesh-sim", loop: "closed, 1 caller", tail: 0.75, setupReps: 3,
		why: "pickMove, e-cube routing and FIFOs do all the work; counter-case to ring-sim, each must stay flat under the other's change",
		new: func(e env) load { return newSimLoad(e, meshSim) },
	},
	{
		name: "paper-figs", loop: "closed, Spec.Workers=2, EngineWorkers=1", tail: 0.75, setupReps: 5,
		why: "the researcher's task: fig11, fig16, fig19 sweeps of many small mostly low-load systems, so build cost, pool fan-out and the mixed-period engine path matter",
		new: func(e env) load { return newFigLoad(e) },
	},
	{
		name: "analytic-triage", loop: "closed, 1 caller", tail: 0.99, setupReps: 5,
		why: "the topofind / auto fast tier: one analytic Estimate per candidate geometry; no engine code runs, so a simulator change must leave it flat",
		new: func(e env) load { return newTriageLoad(e) },
	},
	{
		// The load generator shares the daemon's process and heap, and
		// decoding and comparing every response makes most of the
		// garbage: at the default GOGC the 5 MB heap is collected 57 times
		// a second, and the collector's cross-thread handshakes, whose
		// cost the host sets, decide the run (ten alternating pairs: every
		// metric spreads 9-20 % at GOGC 100, two runs at half speed, and
		// 5-6 % at 800 in the same minutes). GOGC 800 puts the goal near
		// 45 MB, a heap a daemon with a useful cache has anyway.
		gcPercent: 800,
		name:      "serve-hot", loop: "closed, 2 clients x 1 keep-alive connection", tail: 0.95, limitMS: hotLimitMS, setupReps: 3,
		why: "read side of serve: decode, CacheKey, memory LRU at half the working set, disk-tier read, JSON encode; simulation does nothing",
		new: func(e env) load { return newHotLoad(e) },
	},
	{
		name: "serve-submit", loop: "open, Poisson 15 req/s, 1 submitter + 1 poller connection", tail: 0.95, limitMS: submitLimitMS, setupReps: 5, keepAwake: true, open: true,
		why: "write side of serve: journal append+fsync, admission, worker, disk write-through, all three job kinds, with unique keys so nothing is cached",
		new: func(e env) load { return newSubmitLoad(e) },
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// digest is the hex sha256 of a document, newline-terminated.
func digest(doc string) string {
	sum := sha256.Sum256([]byte(doc + "\n"))
	return hex.EncodeToString(sum[:])
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mix derives an independent 64-bit stream value from a seed and a
// lane (splitmix64 finalizer), so per-op seeds never collide.
func mix(seed, lane uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(lane+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
