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
type Xoshiro256 struct {
	s [4]uint64
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
	for i := range x.s {
		x.s[i] = sm.Uint64()
	}
	// An all-zero state would be a fixed point; SplitMix64 cannot emit
	// four consecutive zeros, but guard anyway.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (x *Xoshiro256) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
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
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Lemire (2019): multiply-shift with rejection in the low word.
	hi, lo := bits.Mul64(x.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(x.Uint64(), n)
		}
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

// Jump advances the generator by 2^128 steps, producing a stream that
// will not overlap the original for 2^128 draws. Used to derive
// independent per-rank streams from a single seed.
func (x *Xoshiro256) Jump() {
	jump := [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}
	var s0, s1, s2, s3 uint64
	for _, j := range jump {
		for b := uint(0); b < 64; b++ {
			if j&(1<<b) != 0 {
				s0 ^= x.s[0]
				s1 ^= x.s[1]
				s2 ^= x.s[2]
				s3 ^= x.s[3]
			}
			x.Uint64()
		}
	}
	x.s = [4]uint64{s0, s1, s2, s3}
}
