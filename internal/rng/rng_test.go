package rng

import (
	"math"
	"math/bits"
	"testing"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Verify the algebraic property: the i-th output for seed s equals
	// the SplitMix64 finalizer applied to s + (i+1)*gamma. Mix64 applies
	// the increment itself, so pass the state *before* the increment.
	s := NewSplitMix64(1234567)
	for i := 0; i < 100; i++ {
		want := Mix64(1234567 + uint64(i)*0x9e3779b97f4a7c15)
		if got := s.Uint64(); got != want {
			t.Fatalf("draw %d: got %#x want %#x", i, got, want)
		}
	}
}

func TestMix64NotIdentity(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		v := Mix64(i)
		if seen[v] {
			t.Fatalf("collision at %d", i)
		}
		seen[v] = true
	}
}

func TestXoshiroDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at draw %d", i)
		}
	}
}

func TestXoshiroSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical draws across different seeds", same)
	}
}

func TestFloat64Range(t *testing.T) {
	x := New(7)
	for i := 0; i < 100000; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	x := New(9)
	for i := 0; i < 100000; i++ {
		n := 1 + i%100
		v := x.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d", n, v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	x.Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared test over 16 buckets; threshold is the 99.9th
	// percentile of chi2 with 15 dof (~37.7).
	x := New(123)
	const n, buckets = 160000, 16
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[x.Uint64n(buckets)]++
	}
	expected := float64(n) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 37.7 {
		t.Fatalf("chi2 = %.2f over 15 dof, distribution looks biased: %v", chi2, counts)
	}
}

// mul128 is the 128-bit product Uint64n computed by hand — four 32-bit
// partial products — before it called math/bits.Mul64; kept as the
// reference the one-instruction multiply must match.
func mul128(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a0 * b0
	lo = t & mask32
	c := t >> 32
	t = a1*b0 + c
	m := t & mask32
	c = t >> 32
	t = a0*b1 + m
	lo |= (t & mask32) << 32
	hi = a1*b1 + c + t>>32
	return hi, lo
}

// TestMul128MatchesBits: bits.Mul64 returns what the hand-rolled
// multiply returned, on the carry edges and on 10^6 random pairs, so
// every Uint64n and Intn value is the one it was.
func TestMul128MatchesBits(t *testing.T) {
	check := func(a, b uint64) {
		hi, lo := mul128(a, b)
		if whi, wlo := bits.Mul64(a, b); hi != whi || lo != wlo {
			t.Fatalf("%#x * %#x: hand-rolled (%#x, %#x), bits.Mul64 (%#x, %#x)", a, b, hi, lo, whi, wlo)
		}
	}
	edges := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, 1<<64 - 2, 1<<64 - 1}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	x := New(128)
	for i := 0; i < 1_000_000; i++ {
		a, b := x.Uint64(), x.Uint64()
		if i%2 == 1 {
			b >>= 64 - uint(i/2%64) - 1 // ranges as narrow as Intn's arguments
		}
		check(a, b)
	}
}

func TestPermIsPermutation(t *testing.T) {
	x := New(5)
	for _, n := range []int{0, 1, 2, 10, 257} {
		p := x.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermShuffles(t *testing.T) {
	x := New(11)
	identical := 0
	for trial := 0; trial < 100; trial++ {
		p := x.Perm(20)
		inPlace := 0
		for i, v := range p {
			if i == v {
				inPlace++
			}
		}
		if inPlace == 20 {
			identical++
		}
	}
	if identical > 1 {
		t.Fatalf("identity permutation appeared %d/100 times", identical)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	x := New(77)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := x.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("variance = %v, want ~1", variance)
	}
}

func TestJumpProducesDisjointStreams(t *testing.T) {
	a := New(31337)
	b := New(31337)
	b.Jump()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("jumped stream collided %d times with base stream", same)
	}
}

func TestZeroStateGuard(t *testing.T) {
	// New must never produce the all-zero fixed point.
	for seed := uint64(0); seed < 100; seed++ {
		x := New(seed)
		if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
			t.Fatalf("seed %d produced all-zero state", seed)
		}
	}
}

func BenchmarkXoshiroUint64(b *testing.B) {
	x := New(1)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += x.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	x := New(1)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += x.Intn(8192)
	}
	_ = sink
}
