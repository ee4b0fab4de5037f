// Package serve is the ringmeshd serving subsystem: an HTTP/JSON
// front end over the ringmesh facade with a bounded job queue, a
// worker pool (internal/pool, shared with sweeps and the experiment
// driver), and a content-addressed result cache.
//
// The cache is sound because simulations are deterministic: a
// (topology, config, run-schedule, seed) tuple produces bit-identical
// Results on every run (the repo's golden tests prove it), so a
// result stored under the canonical hash of those inputs
// (ringmesh.CacheKey) can be replayed for any later request with the
// same key without approximation. See DESIGN.md §7.
package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"

	"ringmesh"
	"ringmesh/internal/metrics"
	"ringmesh/internal/obs"
)

// flight is one in-progress computation other requests with the same
// key wait on instead of re-simulating.
type flight struct {
	done chan struct{} // closed when res/err are readable
	res  ringmesh.Result
	err  error
}

// cacheEntry is one stored result.
type cacheEntry struct {
	key string
	res ringmesh.Result
}

// resultCache is a bounded LRU of simulation results keyed by
// ringmesh.CacheKey, with single-flight deduplication: concurrent
// requests for one key run the simulation exactly once and share its
// result. Safe for concurrent use.
//
// Only successful, non-stalled results are stored. Errors (timeouts,
// cancellations, panics) describe the attempt, not the configuration,
// and a stalled result depends on the watchdog horizon in ways the
// caller may want to retry with different options — both are cheap to
// reproduce relative to the cost of serving a wrong answer forever.
type resultCache struct {
	mu       sync.Mutex
	max      int
	order    *list.List               // front = most recently used
	entries  map[string]*list.Element // value: *cacheEntry
	inflight map[string]*flight

	// disk is the optional durable tier (nil: memory only). Memory
	// misses fall through to it, and freshly-computed results are
	// written through, so results survive restarts and N replicas can
	// share one mounted directory.
	disk *diskStore

	hits      *metrics.Counter
	misses    *metrics.Counter
	coalesced *metrics.Counter
	evictions *metrics.Counter
	promoted  *metrics.Counter
}

// newResultCache returns a cache bounded to max entries (min 1) over
// the optional durable tier disk (nil: memory only), registering its
// counters and size gauge in reg (nil disables instrumentation; the
// cache still works).
func newResultCache(max int, disk *diskStore, reg *metrics.Registry) *resultCache {
	if max < 1 {
		max = 1
	}
	c := &resultCache{
		max:       max,
		order:     list.New(),
		entries:   map[string]*list.Element{},
		inflight:  map[string]*flight{},
		disk:      disk,
		hits:      reg.Counter("ringmeshd_cache_hits_total", metrics.Labels{}),
		misses:    reg.Counter("ringmeshd_cache_misses_total", metrics.Labels{}),
		coalesced: reg.Counter("ringmeshd_cache_coalesced_total", metrics.Labels{}),
		evictions: reg.Counter("ringmeshd_cache_evictions_total", metrics.Labels{}),
		promoted:  reg.Counter("ringmeshd_cache_leader_promotions_total", metrics.Labels{}),
	}
	if reg != nil {
		reg.Gauge("ringmeshd_cache_entries", metrics.Labels{}, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.entries))
		})
		reg.Gauge("ringmeshd_cache_inflight", metrics.Labels{}, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.inflight))
		})
	}
	return c
}

// get probes the cache without computing — the submission-time check
// that lets a hit complete a job before it is ever queued. A memory
// miss falls through to the durable tier; a disk hit is folded back
// into the LRU so subsequent probes stay off the filesystem.
func (c *resultCache) get(key string) (ringmesh.Result, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits.Inc()
		res := el.Value.(*cacheEntry).res
		c.mu.Unlock()
		return res, true
	}
	c.mu.Unlock()
	return c.loadDisk(key)
}

// loadDisk probes the durable tier (outside c.mu: file I/O must not
// block unrelated keys) and folds a hit into the memory LRU. Two
// goroutines racing here both read identical bytes; insertLocked
// handles the benign double-insert.
func (c *resultCache) loadDisk(key string) (ringmesh.Result, bool) {
	if c.disk == nil {
		return ringmesh.Result{}, false
	}
	res, ok := c.disk.load(key)
	if !ok {
		return ringmesh.Result{}, false
	}
	c.mu.Lock()
	c.insertLocked(key, res)
	c.mu.Unlock()
	c.hits.Inc()
	return res, true
}

// retryableLeaderErr reports whether a single-flight leader's failure
// is attempt-scoped — its context was canceled or its wall-clock
// budget ran out — rather than a property of the inputs. A waiter
// whose own context is still live should not inherit such an error:
// it re-contends for leadership and computes with its own budget.
func retryableLeaderErr(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ringmesh.ErrTimeout)
}

// do returns the cached result for key, or computes it exactly once
// under single-flight: concurrent callers with the same key block on
// the leader's flight and share its outcome. The second return is
// true when the result was replayed rather than computed by this
// call — a stored hit or a coalesced wait on another caller's
// successful computation. tr (nil ok) receives a cache-store span
// when a leader's freshly-computed result is inserted.
func (c *resultCache) do(ctx context.Context, key string, tr *obs.Trace, compute func() (ringmesh.Result, error)) (ringmesh.Result, bool, error) {
	var f *flight
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.order.MoveToFront(el)
			c.hits.Inc()
			res := el.Value.(*cacheEntry).res
			c.mu.Unlock()
			return res, true, nil
		}
		if lf, ok := c.inflight[key]; ok {
			c.coalesced.Inc()
			c.mu.Unlock()
			select {
			case <-lf.done:
				if lf.err == nil {
					return lf.res, true, nil
				}
				// A deterministic failure (bad config, stall, model
				// panic) is shared: same inputs, same outcome. But an
				// attempt-scoped failure — the leader's context died or
				// its wall-clock budget ran out — says nothing about this
				// waiter's prospects while its own context is live, so it
				// loops back to re-contend; the first waiter through
				// becomes the new leader and computes under its own
				// budget.
				if retryableLeaderErr(lf.err) && ctx.Err() == nil {
					c.promoted.Inc()
					continue
				}
				return lf.res, false, lf.err
			case <-ctx.Done():
				return ringmesh.Result{}, false, ctx.Err()
			}
		}
		f = &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()
		break
	}

	// Leader path. The durable tier is probed after flight
	// registration so concurrent requests coalesce onto one disk read,
	// and outside c.mu so file I/O never blocks unrelated keys.
	if res, ok := c.loadDisk(key); ok {
		f.res = res
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(f.done)
		return res, true, nil
	}

	c.misses.Inc()
	f.res, f.err = compute()

	storeStart := time.Now()
	stored := false
	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil && !f.res.Stalled {
		c.insertLocked(key, f.res)
		stored = true
	}
	c.mu.Unlock()
	if stored && c.disk != nil {
		// Write-through before waiters wake: once anyone observes the
		// result, it is already durable.
		c.disk.store(key, f.res)
	}
	close(f.done)
	if stored {
		tr.Record(obs.SpanRecord{
			Name: "cache-store", Start: storeStart, Dur: time.Since(storeStart),
			Attrs: []obs.Attr{{Key: "key", Value: shortKey(key)}},
		})
	}
	return f.res, false, f.err
}

// insertLocked stores a result, evicting from the LRU tail past the
// bound. Caller holds c.mu.
func (c *resultCache) insertLocked(key string, res ringmesh.Result) {
	if el, ok := c.entries[key]; ok { // lost a benign race; refresh
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for len(c.entries) > c.max {
		tail := c.order.Back()
		c.order.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
}

// shortKey abbreviates a cache key for span attributes and logs.
func shortKey(key string) string {
	if len(key) > 8 {
		return key[:8]
	}
	return key
}
