package ringmesh

// Facade-level fault-injection and forensics tests.
// Golden compatibility (an enabled-but-empty plan changing nothing)
// lives in golden_test.go next to the pinned results.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// stressWorkload drives every PM at full load so fault effects are
// visible immediately.
func stressWorkload() Workload {
	return Workload{R: 1, C: 1, T: 16, ReadProb: 0.7}
}

// TestFaultPlanDeterminism: the same (plan, seed) must reproduce the
// run bit for bit, and an effective fault must actually change the
// measurements relative to the fault-free run.
func TestFaultPlanDeterminism(t *testing.T) {
	cfg := Config{
		Network:   "ring",
		Topology:  "2:3:4",
		LineBytes: 32,
		Workload:  PaperWorkload(),
		Seed:      7,
		FaultPlan: "slowdown@500+2000:node=3,factor=4; degrade@1000+1500:node=8,factor=2",
	}
	run := func(c Config) Result {
		res, err := Run(c, QuickRunOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(cfg), run(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same plan and seed diverged:\n%+v\n%+v", a, b)
	}
	clean := cfg
	clean.FaultPlan = ""
	if c := run(clean); reflect.DeepEqual(a, c) {
		t.Fatal("fault plan had no effect on the measurements")
	}
}

// TestFaultPlanRandDeterminism covers the generated-plan path: a
// "rand:" plan is a pure function of its own seed, independent of the
// run seed.
func TestFaultPlanRandDeterminism(t *testing.T) {
	cfg := Config{
		Network:   "mesh",
		Topology:  "4x4",
		LineBytes: 32,
		Workload:  PaperWorkload(),
		Seed:      7,
		FaultPlan: "rand:events=5,seed=42,horizon=3000",
	}
	a, err := Run(cfg, QuickRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, QuickRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same generated plan diverged:\n%+v\n%+v", a, b)
	}
}

func TestFaultPlanBadSyntaxRejected(t *testing.T) {
	_, err := NewSystem(Config{
		Network: "ring", Topology: "2:4", LineBytes: 32,
		Workload: PaperWorkload(), FaultPlan: "stutter@oops",
	})
	if err == nil {
		t.Fatal("malformed fault plan accepted")
	}
	_, err = NewSystem(Config{
		Network: "ring", Topology: "2:4", LineBytes: 32,
		Workload: PaperWorkload(), FaultPlan: "stutter@10+10:node=99",
	})
	if err == nil {
		t.Fatal("out-of-range fault node accepted")
	}
}

// TestDiagnoseStallFacade: a deliberately deadlocked configuration —
// VC protection off, a transient dead link at full load — returns an
// error that unwraps to ErrStalled and carries a diagnosis naming at
// least one wait-for cycle, retrievable through DiagnoseStall.
func TestDiagnoseStallFacade(t *testing.T) {
	cfg := Config{
		Network:    "ring",
		Topology:   "2:4",
		LineBytes:  32,
		Workload:   stressWorkload(),
		Seed:       1,
		UnsafeNoVC: true,
		FaultPlan:  "stutter@3000+4000:node=0",
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run(RunOptions{WarmupCycles: 2000, BatchCycles: 30000, Batches: 4,
		WatchdogCycles: 9000, FailOnStall: true})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	diag := DiagnoseStall(err)
	if diag == nil {
		t.Fatal("DiagnoseStall returned nil for a stall error")
	}
	if len(diag.Cycles) == 0 {
		t.Fatalf("diagnosis names no wait-for cycle: %s", diag.Summary)
	}
	if diag.BufferedFlits == 0 {
		t.Error("deadlocked network reports no buffered flits")
	}
	if diag.Summary == "" {
		t.Error("empty diagnosis summary")
	}
	// Sanity: DiagnoseStall on a non-stall error is nil.
	if d := DiagnoseStall(fmt.Errorf("unrelated")); d != nil {
		t.Fatalf("DiagnoseStall(unrelated) = %+v", d)
	}
}

// TestRunRejectsNegativeWatchdog: a negative watchdog horizon or
// timeout must be refused, not read as "off" — on the deadlocking
// configuration above the run would otherwise burn its whole schedule
// stalled and come back as an ordinary result.
func TestRunRejectsNegativeWatchdog(t *testing.T) {
	cfg := Config{Network: "ring", Topology: "2:4", LineBytes: 32, Workload: stressWorkload(),
		Seed: 1, UnsafeNoVC: true, FaultPlan: "stutter@3000+4000:node=0"}
	for name, opt := range map[string]RunOptions{
		"watchdog_cycles": {WarmupCycles: 2000, BatchCycles: 30000, Batches: 4, WatchdogCycles: -1},
		"timeout_ns":      {WarmupCycles: 2000, BatchCycles: 30000, Batches: 4, Timeout: -time.Second},
	} {
		res, err := Run(cfg, opt)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("negative %s: Run returned %+v, %v; want a validation error naming it", name, res, err)
		}
	}
}

func TestRunTimeoutFacade(t *testing.T) {
	sys, err := NewSystem(Config{
		Network: "ring", Topology: "2:4", LineBytes: 32,
		Workload: PaperWorkload(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run(RunOptions{WarmupCycles: 1 << 40, BatchCycles: 1 << 40, Batches: 2,
		Timeout: time.Millisecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestRunContextCancelFacade(t *testing.T) {
	sys, err := NewSystem(Config{
		Network: "ring", Topology: "2:4", LineBytes: 32,
		Workload: PaperWorkload(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sys.RunContext(ctx, RunOptions{WarmupCycles: 1 << 40, BatchCycles: 1 << 40, Batches: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
