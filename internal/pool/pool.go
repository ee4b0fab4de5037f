// Package pool provides the bounded-concurrency primitives the
// simulator's fan-out layers share: ForEach, a slice-shaped fan-out
// with stop-on-fatal scheduling (experiment point grids, topofind,
// the serving daemon's executor), and Gang, the lockstep worker set
// under the parallel tick engine (gang.go).
//
// ForEach treats a worker count below 1 as 1 — serial execution — so
// callers can pass a zero value through unchanged. That contract is
// relied on by exp.Spec.Workers.
package pool

import (
	"context"
	"sync"
)

// ForEach calls fn(i) for every i in [0, n) with at most workers
// calls running concurrently (workers < 1 means 1, i.e. serial). All
// non-nil errors are collected and returned in completion order.
//
// Scheduling stops early — indices not yet started are skipped — when
// ctx is done, or when fn returns an error for which fatal reports
// true (a nil fatal never stops). In-flight calls always finish; the
// collected errors include everything returned up to that point.
//
// The stop check deliberately happens after a worker slot is
// acquired: when a running call fails fatally and releases its slot,
// the next index sees the stop flag instead of starting one more
// doomed call.
func ForEach(ctx context.Context, workers, n int, fatal func(error) bool, fn func(i int) error) []error {
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs []error
		stop bool
	)
	for i := 0; i < n; i++ {
		i := i
		sem <- struct{}{}
		mu.Lock()
		stopped := stop
		mu.Unlock()
		if stopped || ctx.Err() != nil {
			<-sem
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			err := fn(i)
			if err == nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			errs = append(errs, err)
			if fatal != nil && fatal(err) {
				stop = true
			}
		}()
	}
	wg.Wait()
	return errs
}
