package core

// Hardened-execution tests: panic recovery at the Run boundary,
// wall-clock timeouts, context cancellation and stall forensics on a
// genuine deadlock. The stub "paniktest" network below is handed to
// NewSystemOn as an already-resolved plan; it moves no packets and
// detonates at a fixed tick, which is all the recovery path needs.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ringmesh/internal/metrics"
	"ringmesh/internal/network"
	"ringmesh/internal/node"
	"ringmesh/internal/packet"
	"ringmesh/internal/sim"
	"ringmesh/internal/trace"
	"ringmesh/internal/workload"
)

// panicNet is a minimal network.Model that panics in Compute at a
// fixed tick. It declines to partition and has no stall report to
// give, which doubles as coverage for both answers.
type panicNet struct{ at int64 }

func (p *panicNet) Compute(now int64) {
	if now >= p.at {
		panic("paniktest: synthetic model bug")
	}
}
func (p *panicNet) Commit(int64)                            {}
func (p *panicNet) Links() []sim.LinkGroup                  { return nil }
func (p *panicNet) SetTracer(*trace.Recorder)               {}
func (p *panicNet) DescribeMetrics(*metrics.Registry)       {}
func (p *panicNet) CheckInvariants() error                  { return nil }
func (p *panicNet) Partition() *sim.Partition               { return nil }
func (p *panicNet) BuildStallReport(int64) *sim.StallReport { return nil }

// panicPlan is the stub network's resolved geometry: 4 PMs.
func panicPlan() *network.Plan {
	return &network.Plan{
		Name:     "paniktest",
		Topology: "paniktest",
		PMs:      4,
		Sizing:   packet.RingSizing,
		Locality: func(r float64) (workload.Pattern, error) {
			return workload.Uniform{P: 4}, nil
		},
		Description: "test network that panics mid-run",
		Build: func(ports []node.Port, engine *sim.Engine) (network.Model, error) {
			return &panicNet{at: 50}, nil
		},
	}
}

func panicSys(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystemOn(panicPlan(), SystemConfig{
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

func TestRunTimeout(t *testing.T) {
	sys, err := NewSystem(ringCfg("2:4", 32))
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{WarmupCycles: 1 << 40, BatchCycles: 1 << 40, Batches: 2,
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
	_, err = sys.RunCtx(ctx, RunConfig{WarmupCycles: 1 << 40, BatchCycles: 1 << 40, Batches: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// deadlockCfg is the paper's 72-PM hierarchy at full load with the
// ring's deadlock-avoidance VCs disabled: its IRI queues close a
// wait-for cycle about 190 cycles in, and nothing moves after that.
func deadlockCfg() SystemConfig {
	return SystemConfig{
		Network:  "ring",
		Net:      network.Config{Topology: "3:3:8", LineBytes: 32, UnsafeNoVC: true},
		Workload: workload.MMRP{R: 1, C: 1, T: 16, ReadProb: 0.7},
		Seed:     5,
	}
}

// TestDeadlockForensics is the acceptance scenario: the deadlocking
// hierarchy returns an error that both unwraps to sim.ErrStalled and
// carries a StallReport naming a wait-for cycle.
func TestDeadlockForensics(t *testing.T) {
	sys, err := NewSystem(deadlockCfg())
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
	sys, err := NewSystem(deadlockCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(RunConfig{WarmupCycles: 1000, BatchCycles: 5000, Batches: 2,
		WatchdogCycles: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stalled {
		t.Fatal("the deadlock did not trip the watchdog")
	}
	if res.Stall == nil {
		t.Fatal("Result.Stalled set but Result.Stall is nil")
	}
	if len(res.Stall.Cycles) == 0 {
		t.Errorf("report names no cycle for the deadlock:\n%s", res.Stall.Summary)
	}
}
