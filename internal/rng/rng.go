// Package rng provides small, fast, deterministic pseudo-random number
// generators with explicit state.
//
// The simulator cannot use math/rand's global state: every simulated rank
// needs its own reproducible stream so that a run is a pure function of
// its seed, independent of how many other ranks exist or in which order
// they draw. SplitMix64 is used for seeding and cheap streams;
// xoshiro256** is the general-purpose generator.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 is the 64-bit SplitMix generator of Steele, Lea and Flood.
// It is primarily used to expand a single seed into independent seeds for
// other generators; it passes BigCrush on its own.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value in the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 returns the SplitMix64 finalizer of x: a high-quality stateless
// hash of a 64-bit value, useful for deriving per-rank seeds.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro256 is the xoshiro256** 1.0 generator of Blackman and Vigna.
// The zero value is invalid (all-zero state); construct with New.
//
// The state is four scalar fields, not a [4]uint64: an array element
// costs the inliner more than a field, and at a cost of 48 Uint64
// leaves room for the small draws built on it (sample.Discrete.At)
// to inline too. The common path of Uint64n inlines Uint64 and its
// multiply; only Lemire's rare rejection is a call.
type Xoshiro256 struct {
	s0, s1, s2, s3 uint64
}

// New returns a xoshiro256** generator whose state is expanded from seed
// with SplitMix64, as the authors recommend.
func New(seed uint64) *Xoshiro256 {
	x := new(Xoshiro256)
	x.Seed(seed)
	return x
}

// Seed resets x to the state New(seed) returns, in place: a slice of
// generator values is seeded without one allocation per stream.
func (x *Xoshiro256) Seed(seed uint64) {
	sm := SplitMix64{state: seed}
	x.s0 = sm.Uint64()
	x.s1 = sm.Uint64()
	x.s2 = sm.Uint64()
	x.s3 = sm.Uint64()
	// An all-zero state would be a fixed point; SplitMix64 cannot emit
	// four consecutive zeros, but guard anyway.
	if x.s0|x.s1|x.s2|x.s3 == 0 {
		x.s0 = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next value in the stream.
func (x *Xoshiro256) Uint64() uint64 {
	s1 := x.s1
	x.s2 ^= x.s0
	x.s3 ^= s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= s1 << 17
	x.s3 = bits.RotateLeft64(x.s3, 45)
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift rejection method, which is unbiased.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(x.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
//
// Lemire (2019): the high word of a 128-bit multiply, with rejection in
// the low word. Only a low word below n can be rejected, and n - 1 wraps
// to the largest value when n is 0, so one comparison sends both the
// rare rejection test and the zero range to uint64nSlow and leaves the
// rest inlinable.
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(x.Uint64(), n)
	if lo <= n-1 {
		hi = x.uint64nSlow(n, hi, lo)
	}
	return hi
}

// uint64nSlow finishes a Uint64n draw whose low word fell below n: it
// rejects while the low word is below 2^64 mod n.
//
//go:noinline
func (x *Xoshiro256) uint64nSlow(n, hi, lo uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	threshold := -n % n
	for lo < threshold {
		hi, lo = bits.Mul64(x.Uint64(), n)
	}
	return hi
}

// Perm returns a random permutation of [0, n) using the Fisher–Yates
// shuffle.
func (x *Xoshiro256) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// NormFloat64 returns a standard normal variate using the polar
// Marsaglia method. Useful for jitter injection in latency models.
func (x *Xoshiro256) NormFloat64() float64 {
	for {
		u := 2*x.Float64() - 1
		v := 2*x.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
