package core

// Hardened-execution tests: panic recovery at the Run boundary,
// wall-clock timeouts, context cancellation, and a model's refusal of
// a fault plan. The stub "paniktest" network below is registered
// once for the whole test binary; it moves no packets and detonates
// at a fixed tick, which is all the recovery path needs.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ringmesh/internal/fault"
	"ringmesh/internal/metrics"
	"ringmesh/internal/network"
	"ringmesh/internal/node"
	"ringmesh/internal/packet"
	"ringmesh/internal/sim"
	"ringmesh/internal/trace"
	"ringmesh/internal/workload"
)

// panicNet is a minimal network.Model that panics in Compute at a
// fixed tick. It refuses fault plans, declines to partition and has no
// stall report to give, which doubles as coverage for each of those
// answers.
type panicNet struct{ at int64 }

func (p *panicNet) Compute(now int64) {
	if now >= p.at {
		panic("paniktest: synthetic model bug")
	}
}
func (p *panicNet) Commit(int64)                            {}
func (p *panicNet) BufferedFlits() int                      { return 0 }
func (p *panicNet) Stats() network.Stats                    { return network.Stats{} }
func (p *panicNet) ResetUtilization()                       {}
func (p *panicNet) SetTracer(*trace.Recorder)               {}
func (p *panicNet) DescribeMetrics(*metrics.Registry)       {}
func (p *panicNet) CheckInvariants() error                  { return nil }
func (p *panicNet) Partition() *sim.Partition               { return nil }
func (p *panicNet) BuildStallReport(int64) *sim.StallReport { return nil }
func (p *panicNet) ApplyFaultPlan(*fault.Plan) error {
	return errors.New("paniktest does not support fault injection")
}

func init() {
	network.Register("paniktest", func(cfg network.Config) (*network.Plan, error) {
		n := cfg.Nodes
		if n == 0 {
			n = 4
		}
		return &network.Plan{
			Topology:      "paniktest",
			PMs:           n,
			TicksPerCycle: 1,
			Sizing:        packet.RingSizing,
			Locality: func(r float64) (workload.Pattern, error) {
				return workload.Uniform{P: n}, nil
			},
			Description: "test network that panics mid-run",
			Build: func(ports []node.Port, engine *sim.Engine) (network.Model, error) {
				return &panicNet{at: 50}, nil
			},
		}, nil
	})
}

func panicSys(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(SystemConfig{
		Network:  "paniktest",
		Net:      network.Config{LineBytes: 32},
		Workload: workload.PaperDefaults(),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestRunRecoversModelPanic(t *testing.T) {
	_, err := panicSys(t).Run(QuickRunConfig())
	if err == nil {
		t.Fatal("panicking model returned no error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "paniktest: synthetic model bug" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "panicNet") {
		t.Errorf("PanicError.Stack does not reach the model:\n%s", pe.Stack)
	}
}

func TestFaultPlanRejectedWithoutCapability(t *testing.T) {
	plan, err := fault.Parse("stutter@10+10:node=0")
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewSystem(SystemConfig{
		Network:   "paniktest",
		Net:       network.Config{LineBytes: 32},
		Workload:  workload.PaperDefaults(),
		Seed:      1,
		FaultPlan: plan,
	})
	if err == nil || !strings.Contains(err.Error(), "fault injection") {
		t.Fatalf("err = %v, want a does-not-support-fault-injection error", err)
	}
}

func TestRunTimeout(t *testing.T) {
	sys, err := NewSystem(ringCfg("2:4", 32))
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{WarmupCycles: 1 << 40, BatchCycles: 1 << 40, Batches: 1,
		Timeout: time.Millisecond}
	if _, err := sys.Run(rc); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestRunContextCanceled(t *testing.T) {
	sys, err := NewSystem(ringCfg("2:4", 32))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sys.RunCtx(ctx, RunConfig{WarmupCycles: 1 << 40, BatchCycles: 1 << 40, Batches: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDeadlockForensics is the acceptance scenario: with the ring's
// deadlock-avoidance VCs disabled, a transient dead link at full load
// pushes the hierarchy into a genuine deadlock that persists after
// the fault clears, and the returned error both unwraps to
// sim.ErrStalled and carries a StallReport naming a wait-for cycle.
func TestDeadlockForensics(t *testing.T) {
	plan, err := fault.Parse("stutter@3000+4000:node=0")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(SystemConfig{
		Network: "ring",
		Net: network.Config{Topology: "2:4", LineBytes: 32,
			UnsafeNoVC: true, IRIQueueFlits: 4},
		Workload:  workload.MMRP{R: 1, C: 1, T: 16, ReadProb: 0.7},
		Seed:      1,
		FaultPlan: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run(RunConfig{WarmupCycles: 2000, BatchCycles: 20000, Batches: 4,
		WatchdogCycles: 9000, FailOnStall: true})
	if !errors.Is(err, sim.ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	var se *sim.StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *sim.StallError", err)
	}
	rep := se.Report
	if rep == nil {
		t.Fatal("stall error without a report")
	}
	if len(rep.Cycles) == 0 {
		t.Fatalf("deadlock report names no wait-for cycle:\n%s", rep.Summary())
	}
	// The watchdog tripped long after the 4000-cycle fault expired:
	// the deadlock is the ring's own, not the fault still holding it.
	if len(rep.ActiveFaults) != 0 {
		t.Errorf("fault still active at stall time: %v", rep.ActiveFaults)
	}
	if rep.BufferedFlits == 0 {
		t.Error("deadlocked network reports no buffered flits")
	}
	if len(rep.Oldest) == 0 {
		t.Error("deadlock report lists no stuck packets")
	}
}

// TestStallReportOnResult checks the non-fatal path: without
// FailOnStall a tripped watchdog still surfaces the forensics on
// Result.Stall while the run returns normally.
func TestStallReportOnResult(t *testing.T) {
	plan, err := fault.Parse("stutter@1000+1000000:node=0")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(SystemConfig{
		Network:   "ring",
		Net:       network.Config{Topology: "2:4", LineBytes: 32},
		Workload:  workload.MMRP{R: 1, C: 1, T: 16, ReadProb: 0.7},
		Seed:      1,
		FaultPlan: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(RunConfig{WarmupCycles: 1000, BatchCycles: 5000, Batches: 2,
		WatchdogCycles: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stalled {
		t.Fatal("permanent dead link did not trip the watchdog")
	}
	if res.Stall == nil {
		t.Fatal("Result.Stalled set but Result.Stall is nil")
	}
	if len(res.Stall.ActiveFaults) == 0 {
		t.Errorf("report omits the active fault:\n%s", res.Stall.Summary())
	}
	if len(res.Stall.Cycles) == 0 {
		t.Errorf("report names no cycle for the faulted link:\n%s", res.Stall.Summary())
	}
}
