// Package fidelity is the analytic answer tier: closed-form performance
// models of the two simulated networks — exact zero-load round-trip
// latency and bisection-bandwidth saturation bounds (model.go) — one
// entry point, Estimate, that evaluates them for a resolved
// configuration (≈ 0.1 ms for the 72-PM ring 3:3:8, ≈ 0.2 ms for the
// 11x11 mesh: the ledger's fidelity.estimate_us_* probes), and the
// recorded validation table that says how far the estimate may sit
// from the simulator (bounds.go). The facade's Run is the only place
// that chooses between this tier and the flit-level engine.
//
// The tiering (cache hit → analytic estimate → exact simulation)
// mirrors the paper's own lineage: Hamacher & Jiang (ICPP'94) compare
// these networks purely analytically, and design studies triage
// candidate points with cheap models before simulating the survivors.
// The models double as cross-validation anchors: the tests drive the
// simulator at vanishing load and require it to agree with the
// formulas, and the saturation bounds explain where the simulated
// latency knees appear.
package fidelity

import (
	"errors"
	"fmt"
	"math"

	"ringmesh/internal/core"
	"ringmesh/internal/network"
	"ringmesh/internal/topo"
)

// Answer tier names. Auto is a serving-layer routing policy ("cache
// hit if present, else analytic now plus an exact upgrade job"),
// resolved at admission — it never reaches Estimate and never enters a
// cache key.
const (
	Simulate = "simulate"
	Analytic = "analytic"
	Auto     = "auto"
)

// ErrUnsupported marks a configuration the analytic models do not
// cover (slotted switching, double-speed global rings or disabled
// virtual channels on a ring, open-loop or deterministic workloads). A field the family ignores is never a reason: a mesh
// carrying a ring-only flag gets the plain mesh's answer.
// Serving layers treat it as "fall back to exact", not as a failure.
var ErrUnsupported = errors.New("fidelity: configuration outside the analytic model's validated envelope")

// Normalize resolves a fidelity spelling to a tier name: the empty
// string means simulate (the legacy default, so pre-fidelity configs
// hash and behave exactly as before). Auto is rejected — it is an
// admission-time policy, and must be resolved to simulate or analytic
// before anything is estimated or keyed.
func Normalize(name string) (string, error) {
	switch name {
	case "", Simulate:
		return Simulate, nil
	case Analytic:
		return Analytic, nil
	case Auto:
		return "", fmt.Errorf("fidelity: %q is a serving policy, resolve it to %q or %q at admission", Auto, Simulate, Analytic)
	default:
		return "", fmt.Errorf("fidelity: unknown fidelity %q (want %q, %q or %q)", name, Simulate, Analytic, Auto)
	}
}

// Estimate answers a configuration from the closed-form models:
// expected zero-load round-trip latency under the M-MRP target
// distribution, plus a saturation verdict and the predicted bottleneck
// utilization from the bisection bounds. The answer is labeled
// (Fidelity) and carries the recorded validation bound for its
// geometry (ErrorBound, nil when the family has none). plan is cfg's
// geometry as network.New resolved it and cfg.MemLatency the cycles to
// model (the caller resolves the zero default); the run schedule, seed
// and histogram play no part, which is why CacheKey zeroes them for
// analytic keys. Observation fields stay zero: nothing was observed.
//
// It refuses — with ErrUnsupported — anything outside the validated
// envelope rather than guessing: serving layers fall back to exact
// simulation on that error, so refusal costs a queue slot, never a
// wrong labeled answer.
func Estimate(plan *network.Plan, cfg core.SystemConfig) (core.Result, error) {
	// The formulas, the envelope and the bound read the family's own
	// view of the request, so an ignored field cannot refuse an answer.
	cfg.Net = plan.Net
	if err := unsupported(cfg); err != nil {
		return core.Result{}, err
	}
	// A round trip is the pair's request-plus-response hops plus the
	// transaction kind's pair-free cycles (model.go), so the pair-free
	// terms are computed once here, not once per drawn pair.
	var (
		hops          func(src, dst int) int
		kRead, kWrite int
		capacity      float64 // sustainable remote transactions per PM-cycle
	)
	ring := plan.Name == "ring" // else a mesh: New resolves no third family
	if ring {
		spec, err := topo.ParseRingSpec(plan.Topology)
		if err != nil {
			return core.Result{}, err
		}
		hops = spec.RoundTripHops
		kRead, kWrite = ringPairFree(cfg, true), ringPairFree(cfg, false)
		capacity = ringBisectionBound(spec, cfg)
	} else {
		spec, err := topo.ParseMeshSpec(plan.Topology)
		if err != nil {
			return core.Result{}, err
		}
		hops = func(src, dst int) int { return 2 * spec.HopDistance(src, dst) }
		kRead, kWrite = meshPairFree(cfg, true), meshPairFree(cfg, false)
		capacity = meshBisectionBound(spec, cfg)
	}
	pat, err := plan.Locality(cfg.Workload.R)
	if err != nil {
		return core.Result{}, err
	}
	lat, remote, err := sampleTargets(plan.PMs, pat, hops, kRead, kWrite, cfg.Workload.ReadProb)
	if err != nil {
		return core.Result{}, err
	}

	// Local accesses bypass the network, so the offered network load
	// per PM is C times the remote fraction. Past the bisection bound
	// the network cannot drain what the processors offer, which is
	// exactly the simulator's Saturated verdict at the knee.
	offered := cfg.Workload.C * remote
	res := core.Result{
		LatencyCycles: lat,
		Throughput:    math.Min(offered, capacity) * float64(plan.PMs),
		Saturated:     capacity > 0 && offered > capacity,
		Fidelity:      Analytic,
		ErrorBound:    boundFor(plan),
	}
	// Report the predicted bottleneck utilization in the family's
	// utilization slot so tier-labeled answers still carry a load
	// signal (global ring for hierarchies, aggregate for meshes).
	var util float64
	if capacity > 0 {
		util = math.Min(1, offered/capacity)
	}
	if ring {
		res.RingUtilization = []float64{util}
	} else {
		res.MeshUtilization = util
	}
	return res, nil
}

// unsupported rejects configuration features the analytic formulas do
// not model and the validation harness therefore never certified.
func unsupported(cfg core.SystemConfig) error {
	switch {
	case cfg.Net.SlottedSwitching:
		return fmt.Errorf("%w: slotted switching", ErrUnsupported)
	case cfg.Net.DoubleSpeedGlobal:
		return fmt.Errorf("%w: double-speed global ring", ErrUnsupported)
	case cfg.Net.UnsafeNoVC:
		return fmt.Errorf("%w: virtual channels disabled", ErrUnsupported)
	case cfg.Workload.OpenLoop:
		return fmt.Errorf("%w: open-loop workload", ErrUnsupported)
	case cfg.Workload.Deterministic:
		return fmt.Errorf("%w: deterministic inter-miss gaps", ErrUnsupported)
	default:
		return nil
	}
}
