package ringmesh

// Facade-level stall forensics and run bounds: a genuine hierarchy
// deadlock surfaces as ErrStalled with a diagnosis, and the watchdog,
// the timeout and a cancelled context each end a run.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// deadlockConfig is the paper's 72-PM hierarchy at full load with its
// virtual channels off: the VC-less rings close a wait-for cycle of IRI
// queues about 190 cycles in, and nothing moves after that.
func deadlockConfig() Config {
	return Config{Network: "ring", Topology: "3:3:8", LineBytes: 32,
		Workload: Workload{R: 1, C: 1, T: 16, ReadProb: 0.7}, Seed: 5, UnsafeNoVC: true}
}

// TestDiagnoseStallFacade: the deadlocking configuration returns an
// error that unwraps to ErrStalled and carries a diagnosis naming at
// least one wait-for cycle, retrievable through DiagnoseStall.
func TestDiagnoseStallFacade(t *testing.T) {
	sys, err := NewSystem(deadlockConfig())
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
	for name, opt := range map[string]RunOptions{
		"watchdog_cycles": {WarmupCycles: 2000, BatchCycles: 30000, Batches: 4, WatchdogCycles: -1},
		"timeout_ns":      {WarmupCycles: 2000, BatchCycles: 30000, Batches: 4, Timeout: -time.Second},
	} {
		res, err := Run(deadlockConfig(), opt)
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
