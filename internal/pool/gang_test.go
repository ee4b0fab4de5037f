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
