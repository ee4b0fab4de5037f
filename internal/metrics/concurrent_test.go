package metrics

import (
	"io"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRegistryConcurrentJobs exercises the sharing contract the
// serving daemon depends on: several job goroutines increment shared
// counters and read gauges while exporter goroutines snapshot and
// render the same registry, all concurrently (run under -race in CI).
// Ratio series are deliberately absent — their backings stay owned by
// one single-threaded simulation (see the Registry doc).
func TestRegistryConcurrentJobs(t *testing.T) {
	reg := &Registry{}
	hits := reg.Counter("test_cache_hits_total", Labels{})
	misses := reg.Counter("test_cache_misses_total", Labels{})
	var inflight atomic.Int64
	reg.Gauge("test_jobs_inflight", Labels{}, func() float64 { return float64(inflight.Load()) })

	const jobs, rounds = 4, 2000
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				inflight.Add(1)
				if i%2 == 0 {
					hits.Inc()
				} else {
					misses.Add(1)
				}
				inflight.Add(-1)
				// Jobs also register their own instruments mid-flight
				// (distinct keys per goroutine), racing the exporters.
				if i == rounds/2 {
					reg.Counter("test_job_private_total", Labels{Node: string(rune('a' + j))})
				}
			}
		}()
	}
	// Two exporters: the /metrics endpoint shape (WriteText) and a
	// sampler-shaped reader walking the snapshot by hand.
	for e := 0; e < 2; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := reg.WriteText(io.Discard); err != nil {
					t.Errorf("WriteText: %v", err)
					return
				}
				for _, s := range reg.Series() {
					_ = s.Value()
				}
			}
		}()
	}
	wg.Wait()

	if got := hits.Value() + misses.Value(); got != jobs*rounds {
		t.Fatalf("counted %d events, want %d", got, jobs*rounds)
	}
	if got := len(reg.Series()); got != 3+jobs {
		t.Fatalf("registry holds %d series, want %d", got, 3+jobs)
	}
}

// TestRegistryConcurrentReset pins that the warmup reset may race
// with counter increments without corrupting the monotonic counts
// that follow (the serving daemon never resets its shared registry,
// but nothing should crash or race if a caller does).
func TestRegistryConcurrentReset(t *testing.T) {
	reg := &Registry{}
	c := reg.Counter("test_events_total", Labels{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			c.Inc()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			reg.Reset()
		}
	}()
	wg.Wait()
	if v := c.Value(); v < 0 || v > 5000 {
		t.Fatalf("counter = %d, want within [0,5000]", v)
	}
}
