package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ringmesh"
	"ringmesh/internal/metrics"
)

func res(latency float64) ringmesh.Result {
	return ringmesh.Result{LatencyCycles: latency}
}

// len reports the number of stored entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func TestCacheHitAfterCompute(t *testing.T) {
	reg := &metrics.Registry{}
	c := newResultCache(4, nil, reg)
	ctx := context.Background()

	computes := 0
	compute := func() (ringmesh.Result, error) { computes++; return res(10), nil }

	r, cached, err := c.do(ctx, "k", nil, compute)
	if err != nil || cached || r.LatencyCycles != 10 {
		t.Fatalf("first do = (%v, %v, %v); want fresh 10", r.LatencyCycles, cached, err)
	}
	r, cached, err = c.do(ctx, "k", nil, compute)
	if err != nil || !cached || r.LatencyCycles != 10 {
		t.Fatalf("second do = (%v, %v, %v); want cached 10", r.LatencyCycles, cached, err)
	}
	if computes != 1 {
		t.Fatalf("computed %d times; want 1", computes)
	}
	if got, _ := c.get("k"); got.LatencyCycles != 10 {
		t.Fatalf("get = %v; want 10", got.LatencyCycles)
	}
	if c.hits.Value() != 2 || c.misses.Value() != 1 {
		t.Fatalf("hits=%d misses=%d; want 2/1", c.hits.Value(), c.misses.Value())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2, nil, nil)
	ctx := context.Background()
	for i, k := range []string{"a", "b", "c"} {
		v := float64(i)
		if _, _, err := c.do(ctx, k, nil, func() (ringmesh.Result, error) { return res(v), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.len() != 2 {
		t.Fatalf("len = %d; want 2", c.len())
	}
	if _, ok := c.get("a"); ok {
		t.Fatalf("oldest entry survived eviction")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("entry %q evicted; want kept", k)
		}
	}

	// Touching "b" must protect it from the next eviction.
	c.get("b")
	if _, _, err := c.do(ctx, "d", nil, func() (ringmesh.Result, error) { return res(3), nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.get("b"); !ok {
		t.Fatalf("recently-used entry evicted")
	}
	if _, ok := c.get("c"); ok {
		t.Fatalf("least-recently-used entry kept")
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := newResultCache(4, nil, nil)
	ctx := context.Background()

	entered := make(chan struct{})
	release := make(chan struct{})
	computes := 0
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, cached, err := c.do(ctx, "k", nil, func() (ringmesh.Result, error) {
			computes++
			close(entered)
			<-release
			return res(7), nil
		})
		if err != nil || cached {
			t.Errorf("leader = (cached=%v, err=%v); want fresh", cached, err)
		}
	}()
	<-entered

	const waiters = 4
	var wg sync.WaitGroup
	results := make([]ringmesh.Result, waiters)
	cachedFlags := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, cached, err := c.do(ctx, "k", nil, func() (ringmesh.Result, error) {
				t.Error("waiter computed; want coalesced")
				return ringmesh.Result{}, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i], cachedFlags[i] = r, cached
		}(i)
	}
	// Waiters may still be between the inflight check and the wait;
	// give the scheduler a chance, then release the leader.
	close(release)
	wg.Wait()
	<-leaderDone

	for i := 0; i < waiters; i++ {
		if results[i].LatencyCycles != 7 || !cachedFlags[i] {
			t.Fatalf("waiter %d = (%v, cached=%v); want coalesced 7", i, results[i].LatencyCycles, cachedFlags[i])
		}
	}
	if computes != 1 {
		t.Fatalf("computed %d times; want 1", computes)
	}
}

func TestCacheDoesNotStoreErrorsOrStalls(t *testing.T) {
	c := newResultCache(4, nil, nil)
	ctx := context.Background()

	boom := errors.New("boom")
	if _, _, err := c.do(ctx, "err", nil, func() (ringmesh.Result, error) { return ringmesh.Result{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v; want boom", err)
	}
	if _, ok := c.get("err"); ok {
		t.Fatalf("error result was cached")
	}

	stalled := ringmesh.Result{Stalled: true}
	if _, cached, err := c.do(ctx, "stall", nil, func() (ringmesh.Result, error) { return stalled, nil }); err != nil || cached {
		t.Fatalf("stall do = (cached=%v, err=%v)", cached, err)
	}
	if _, ok := c.get("stall"); ok {
		t.Fatalf("stalled result was cached; a later run with a longer watchdog could differ")
	}
	if c.len() != 0 {
		t.Fatalf("len = %d; want 0", c.len())
	}
}

// waitForCount polls until the counter reaches want, failing the test
// after a generous deadline. Used where a test must know a waiter has
// joined a flight before poking the leader.
func waitForCount(t *testing.T, c *metrics.Counter, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d; want %d", c.Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheWaiterPromotedOnRetryableLeaderFailure pins the
// single-flight failure contract: a leader that dies of an
// attempt-scoped cause (its context was canceled, its deadline passed,
// its wall-clock budget ran out) must not poison its waiters — a
// waiter with a live context is promoted to new leader and computes
// under its own budget.
func TestCacheWaiterPromotedOnRetryableLeaderFailure(t *testing.T) {
	for _, leaderErr := range []error{context.Canceled, context.DeadlineExceeded, ringmesh.ErrTimeout} {
		t.Run(leaderErr.Error(), func(t *testing.T) {
			reg := &metrics.Registry{}
			c := newResultCache(4, nil, reg)
			entered := make(chan struct{})
			release := make(chan struct{})

			leaderDone := make(chan error, 1)
			go func() {
				_, _, err := c.do(context.Background(), "k", nil, func() (ringmesh.Result, error) {
					close(entered)
					<-release
					return ringmesh.Result{}, leaderErr
				})
				leaderDone <- err
			}()
			<-entered

			waiterDone := make(chan struct{})
			var (
				r      ringmesh.Result
				cached bool
				werr   error
			)
			go func() {
				defer close(waiterDone)
				r, cached, werr = c.do(context.Background(), "k", nil, func() (ringmesh.Result, error) {
					return res(42), nil
				})
			}()
			// Only release the leader once the waiter is provably parked on
			// its flight; otherwise the waiter might arrive after the
			// failure and compute without ever being promoted.
			waitForCount(t, c.coalesced, 1)
			close(release)

			if err := <-leaderDone; !errors.Is(err, leaderErr) {
				t.Fatalf("leader err = %v; want %v", err, leaderErr)
			}
			<-waiterDone
			if werr != nil || cached || r.LatencyCycles != 42 {
				t.Fatalf("promoted waiter = (%v, cached=%v, err=%v); want fresh 42", r.LatencyCycles, cached, werr)
			}
			if c.promoted.Value() != 1 {
				t.Fatalf("promotions = %d; want 1", c.promoted.Value())
			}
			// The promoted waiter's result is cached for everyone after.
			if _, ok := c.get("k"); !ok {
				t.Fatal("promoted result not cached")
			}
		})
	}
}

// TestCacheWaiterInheritsDeterministicFailure is the other half of the
// contract: a failure that is a property of the inputs (same config,
// same outcome on any retry) is shared with waiters — no promotion, no
// wasted recompute.
func TestCacheWaiterInheritsDeterministicFailure(t *testing.T) {
	reg := &metrics.Registry{}
	c := newResultCache(4, nil, reg)
	entered := make(chan struct{})
	release := make(chan struct{})
	boom := errors.New("model panic")

	go c.do(context.Background(), "k", nil, func() (ringmesh.Result, error) {
		close(entered)
		<-release
		return ringmesh.Result{}, boom
	})
	<-entered

	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.do(context.Background(), "k", nil, func() (ringmesh.Result, error) {
			t.Error("waiter recomputed a deterministic failure")
			return ringmesh.Result{}, nil
		})
		waiterDone <- err
	}()
	waitForCount(t, c.coalesced, 1)
	close(release)

	if err := <-waiterDone; !errors.Is(err, boom) {
		t.Fatalf("waiter err = %v; want the leader's %v", err, boom)
	}
	if c.promoted.Value() != 0 {
		t.Fatalf("promotions = %d; want 0", c.promoted.Value())
	}
}

// TestCacheDeadWaiterNotPromoted: a waiter whose own context is
// already done when the leader fails retryably must not be promoted —
// it has no budget to compute under. It gets an error (its own or the
// leader's; both are honest) and goes away.
func TestCacheDeadWaiterNotPromoted(t *testing.T) {
	reg := &metrics.Registry{}
	c := newResultCache(4, nil, reg)
	entered := make(chan struct{})
	release := make(chan struct{})

	go c.do(context.Background(), "k", nil, func() (ringmesh.Result, error) {
		close(entered)
		<-release
		return ringmesh.Result{}, ringmesh.ErrTimeout
	})
	<-entered

	wctx, wcancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.do(wctx, "k", nil, func() (ringmesh.Result, error) {
			t.Error("dead waiter computed")
			return ringmesh.Result{}, nil
		})
		waiterDone <- err
	}()
	waitForCount(t, c.coalesced, 1)
	wcancel()
	close(release)

	if err := <-waiterDone; err == nil {
		t.Fatal("dead waiter got a nil error")
	}
	if c.promoted.Value() != 0 {
		t.Fatalf("promotions = %d; want 0", c.promoted.Value())
	}
}

func TestCacheWaiterCancellation(t *testing.T) {
	c := newResultCache(4, nil, nil)
	entered := make(chan struct{})
	release := make(chan struct{})
	go c.do(context.Background(), "k", nil, func() (ringmesh.Result, error) {
		close(entered)
		<-release
		return res(1), nil
	})
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.do(ctx, "k", nil, func() (ringmesh.Result, error) { return res(0), nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
	close(release)
}
