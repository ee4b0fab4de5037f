package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile of ascending xs by linear
// interpolation between closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is the 0.5-quantile of unsorted xs.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// percentileLadder is the set of tail percentiles a timing may be
// reported at, lowest first.
var percentileLadder = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999}

// highestPercentile picks the highest ladder percentile that still has
// at least ten samples beyond it — the most extreme tail n samples can
// support without the number being one outlier. With fewer than twenty
// samples nothing beyond the median qualifies and it returns 0.5.
func highestPercentile(n int) float64 {
	best := 0.5
	for _, p := range percentileLadder {
		if float64(n)*(1-p) >= 10-1e-9 { // 100*(1-0.9) is 9.999999999999998 in floating point
			best = p
		}
	}
	return best
}

// percentileLabel renders 0.95 as "p95" and 0.999 as "p99.9".
func percentileLabel(p float64) string {
	return "p" + strconv.FormatFloat(math.Round(p*1000)/10, 'f', -1, 64)
}

// spread is the interquartile range over the median, with quartiles as
// Python's statistics.quantiles(values, n=4) computes them (exclusive
// method), so the numbers match the acceptance driver's.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
