package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsEveryIndex(t *testing.T) {
	var done [100]int32
	errs := ForEach(context.Background(), 8, len(done), func(i int) error {
		atomic.AddInt32(&done[i], 1)
		return nil
	})
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	for i, d := range done {
		if d != 1 {
			t.Fatalf("index %d ran %d times", i, d)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, max int32
	ForEach(context.Background(), workers, 50, func(i int) error {
		c := atomic.AddInt32(&cur, 1)
		for {
			m := atomic.LoadInt32(&max)
			if c <= m || atomic.CompareAndSwapInt32(&max, m, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&cur, -1)
		return nil
	})
	if got := atomic.LoadInt32(&max); got > workers {
		t.Fatalf("observed %d concurrent calls, want <= %d", got, workers)
	}
}

// TestForEachZeroWorkersIsSerial pins the documented contract that a
// zero (or negative) worker count means serial execution — the
// exp.Spec{Workers: 0} semantics.
func TestForEachZeroWorkersIsSerial(t *testing.T) {
	for _, workers := range []int{0, -3} {
		var cur, max int32
		var order []int
		var mu sync.Mutex
		ForEach(context.Background(), workers, 20, func(i int) error {
			c := atomic.AddInt32(&cur, 1)
			if c > atomic.LoadInt32(&max) {
				atomic.StoreInt32(&max, c)
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			atomic.AddInt32(&cur, -1)
			return nil
		})
		if max != 1 {
			t.Fatalf("workers=%d: observed %d concurrent calls, want 1", workers, max)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d: serial execution out of order: %v", workers, order)
			}
		}
	}
}

// TestForEachErrorsKeepGoing pins that a failing call stops nothing:
// every index still runs and every error is collected.
func TestForEachErrorsKeepGoing(t *testing.T) {
	var calls int32
	errs := ForEach(context.Background(), 2, 10, func(i int) error {
		atomic.AddInt32(&calls, 1)
		return errors.New("transient")
	})
	if got := atomic.LoadInt32(&calls); got != 10 {
		t.Fatalf("fn ran %d times, want 10", got)
	}
	if len(errs) != 10 {
		t.Fatalf("collected %d errors, want 10", len(errs))
	}
}

func TestForEachContextCancelStopsScheduling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls int32
	ForEach(ctx, 1, 100, func(i int) error {
		if atomic.AddInt32(&calls, 1) == 3 {
			cancel()
		}
		return nil
	})
	if got := atomic.LoadInt32(&calls); got != 3 {
		t.Fatalf("fn ran %d times after cancel, want 3", got)
	}
}
