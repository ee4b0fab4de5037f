// Package rng provides small, fast, deterministic pseudo-random number
// generators for the simulator.
//
// The simulator does not use math/rand: results must be bit-for-bit
// reproducible across Go releases so that regression tests can assert on
// exact simulation outcomes. The core generator is SplitMix64 (Steele,
// Lea, Flood 2014), which has a 64-bit state, passes BigCrush when used
// as a stream, and — crucially for our use — supports cheap, well-mixed
// stream derivation so every processing module gets an independent
// stream from a single experiment seed.
package rng

import "math"

// golden is the 64-bit golden-ratio increment used by SplitMix64.
const golden = 0x9E3779B97F4A7C15

// Source is a deterministic pseudo-random source. The zero value is a
// valid generator (seed 0); use New or Derive for seeded streams.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Derive returns an independent stream for the given lane (for example,
// one per processor). The lane index is mixed through the output
// function so that adjacent lanes are decorrelated.
func Derive(seed uint64, lane uint64) *Source {
	// Mix the lane through two rounds so lane 0 and lane 1 do not
	// produce overlapping subsequences of the parent stream.
	s := New(seed)
	base := s.Uint64()
	return New(mix(base + lane*golden))
}

// mix is the SplitMix64 output function.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits / 2^53.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method (unbiased).
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xFFFFFFFF
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Geometric returns a sample from the geometric distribution with
// success probability p: the number of failures before the first
// success (support {0, 1, 2, ...}, mean (1-p)/p). It panics if p is not
// in (0, 1].
func (s *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs p in (0,1]")
	}
	if p == 1 {
		return 0
	}
	// Inversion: floor(ln(U) / ln(1-p)) with U in (0,1].
	u := 1 - s.Float64() // (0, 1]
	g := math.Floor(math.Log(u) / math.Log(1-p))
	if g < 0 {
		return 0
	}
	if g > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(g)
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes xs in place.
func (s *Source) Shuffle(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
