package pool

import (
	"sync/atomic"
	"testing"
)

func TestGangRunsBodyOnEveryWorker(t *testing.T) {
	g := NewGang(4)
	defer g.Close()
	var seen [4]atomic.Bool
	g.Run(func(w int) { seen[w].Store(true) })
	for w := range seen {
		if !seen[w].Load() {
			t.Errorf("worker %d never ran", w)
		}
	}
}

// TestGangSyncIsABarrier checks the lockstep contract: no worker
// observes the post-barrier phase until every worker finished the
// pre-barrier phase.
func TestGangSyncIsABarrier(t *testing.T) {
	const workers, rounds = 4, 100
	g := NewGang(workers)
	defer g.Close()
	var before, violations atomic.Int32
	g.Run(func(w int) {
		for r := 0; r < rounds; r++ {
			before.Add(1)
			g.Sync()
			if before.Load() != int32((r+1)*workers) {
				violations.Add(1)
			}
			g.Sync()
		}
	})
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d barrier violations over %d rounds", n, rounds)
	}
}

func TestGangReusableAcrossRuns(t *testing.T) {
	g := NewGang(3)
	defer g.Close()
	var total atomic.Int32
	for i := 0; i < 10; i++ {
		g.Run(func(w int) { total.Add(1) })
	}
	if got := total.Load(); got != 30 {
		t.Fatalf("10 runs x 3 workers = %d body calls, want 30", got)
	}
}

// TestCapInner pins the experiment grids' oversubscription guard:
// outer x CapInner(...) never exceeds the CPU budget, and the result is
// never below 1.
func TestCapInner(t *testing.T) {
	cases := []struct {
		cpus, outer, inner, want int
	}{
		{8, 2, 4, 4},   // fits exactly
		{8, 2, 8, 4},   // capped to cpus/outer
		{8, 4, 1, 1},   // modest ask passes through
		{4, 8, 4, 1},   // more outer tasks than cpus: inner collapses
		{1, 1, 16, 1},  // one cpu bounds everything
		{1, 4, 4, 1},   // never below 1 even when the division is 0
		{8, 0, 4, 4},   // outer < 1 treated as 1
		{0, 2, 4, 1},   // cpus < 1 treated as 1
		{8, 2, 0, 1},   // inner < 1 means serial
		{8, 2, -3, 1},  // negative inner means serial
		{16, 3, 10, 5}, // floor division
	}
	for _, tc := range cases {
		if got := CapInner(tc.cpus, tc.outer, tc.inner); got != tc.want {
			t.Errorf("CapInner(%d, %d, %d) = %d, want %d",
				tc.cpus, tc.outer, tc.inner, got, tc.want)
		}
	}
}
