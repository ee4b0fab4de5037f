// Package pool provides the bounded-concurrency primitives the
// simulator's fan-out layers share: ForEach, a slice-shaped fan-out
// (experiment point grids, topofind, the serving daemon's executor),
// and Gang, the lockstep worker set
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
// An error never stops the loop; scheduling stops early — indices not
// yet started are skipped — only when ctx is done. In-flight calls
// always finish; the collected errors include everything returned up
// to that point.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) []error {
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs []error
	)
	for i := 0; i < n; i++ {
		i := i
		sem <- struct{}{}
		if ctx.Err() != nil {
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
			errs = append(errs, err)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return errs
}
