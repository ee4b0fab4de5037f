package serve

import (
	"sync"
	"time"
)

// breaker is a per-worker circuit breaker with two states. Closed
// (healthy): dispatches flow. Open (ejected): the worker gets no
// traffic at all. Tripping is failure-count based — transport errors
// and submit-path 5xxs count, job-level outcomes do not — and
// re-admission is probe-based, not traffic-based: the coordinator's
// health loop asks an ejected worker's /readyz once per cooldown
// and closes the breaker on success, so a flapping replica soaks up
// health probes instead of real points. (That replaces the
// traditional half-open state: there is never a "trial" user request,
// because the probe is the trial.)
type breaker struct {
	threshold int              // consecutive failures that trip it
	cooldown  time.Duration    // minimum time open before a probe may re-admit
	now       func() time.Time // injectable clock for tests

	mu       sync.Mutex
	open     bool
	fails    int       // consecutive failures while closed
	openedAt time.Time // when it last tripped (or a probe last failed)
}

// newBreaker builds a closed breaker tripping after threshold
// consecutive failures (min 1) and eligible for re-admission probes
// cooldown after tripping.
func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// admitted reports whether the worker may receive dispatches.
func (b *breaker) admitted() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.open
}

// success records a healthy interaction, resetting the failure streak.
func (b *breaker) success() {
	b.mu.Lock()
	b.fails = 0
	b.mu.Unlock()
}

// failure records a failed interaction; it reports true when this
// failure tripped the breaker (closed -> open), so the caller can
// count trips exactly once.
func (b *breaker) failure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.open {
		return false
	}
	b.fails++
	if b.fails < b.threshold {
		return false
	}
	b.open = true
	b.fails = 0
	b.openedAt = b.now()
	return true
}

// probeDue reports whether the breaker is open and has been for at
// least the cooldown — i.e. the health loop should probe the worker
// now.
func (b *breaker) probeDue() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open && b.now().Sub(b.openedAt) >= b.cooldown
}

// probeResult feeds a health-probe outcome: success re-admits the
// worker (open -> closed, reported as true); failure restarts the
// cooldown so the next probe waits a full interval again.
func (b *breaker) probeResult(healthy bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return false
	}
	if healthy {
		b.open = false
		b.fails = 0
		return true
	}
	b.openedAt = b.now()
	return false
}
