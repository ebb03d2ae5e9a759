package sample

import (
	"errors"
	"math"
	"testing"

	"distws/internal/rng"
)

// refDiscrete is the float alias table the packed one replaced: an
// acceptance probability and an alias per bucket, sampled with
// Float64. It stays here as the reference the integer tables must
// match draw for draw.
type refDiscrete struct {
	prob  []float64
	alias []int32
}

func newRefDiscrete(weights []float64) *refDiscrete {
	n := len(weights)
	var total float64
	for _, w := range weights {
		total += w
	}
	d := &refDiscrete{prob: make([]float64, n), alias: make([]int32, n)}
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
	}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i := n - 1; i >= 0; i-- {
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		d.prob[s] = scaled[s]
		d.alias[s] = l
		scaled[l] = (scaled[l] + scaled[s]) - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, l := range large {
		d.prob[l] = 1
		d.alias[l] = l
	}
	for _, s := range small {
		d.prob[s] = 1
		d.alias[s] = s
	}
	return d
}

func (d *refDiscrete) sample(r *rng.Xoshiro256) int {
	i := r.Intn(len(d.prob))
	if r.Float64() < d.prob[i] {
		return i
	}
	return int(d.alias[i])
}

// checkThreshold verifies Threshold(p) against the float comparison at
// the draws next to it (where the two could disagree) and at both ends
// of the draw range.
func checkThreshold(t *testing.T, p float64) {
	t.Helper()
	const top = 1 << thresholdBits
	th := Threshold(p)
	if th > top {
		t.Fatalf("Threshold(%v) = %d exceeds 2^53", p, th)
	}
	ks := []uint64{0, 1, top - 2, top - 1}
	for d := uint64(0); d <= 2; d++ {
		if th >= d {
			ks = append(ks, th-d)
		}
		ks = append(ks, th+d)
	}
	for _, k := range ks {
		if k >= top {
			continue
		}
		if float, integer := float64(k)/top < p, k < th; float != integer {
			t.Fatalf("p = %v (%#x), draw %d: float64(k)/2^53 < p is %v, k < Threshold(p) = %d is %v",
				p, math.Float64bits(p), k, float, th, integer)
		}
	}
}

func TestThresholdExact(t *testing.T) {
	const ulp = 1.0 / (1 << 53) // spacing of float64 in [0.5, 1)
	edges := []float64{
		0, math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-54, 0x1p-53, 0x1p-52, 3 * 0x1p-53,
		0.5 - ulp/2, 0.5, 0.5 + ulp, 1 - ulp, 1, 1 + 2*ulp, 2, math.Inf(1),
		-0x1p-53, -1, math.Inf(-1), math.NaN(),
	}
	for _, p := range edges {
		checkThreshold(t, p)
	}
	r := rng.New(53)
	for i := 0; i < 200000; i++ {
		// Full-precision mantissas over 80 binades, so the product with
		// 2^53 lands on, just above and far below an integer.
		p := math.Ldexp(1+r.Float64(), -1-r.Intn(80))
		checkThreshold(t, p)
		checkThreshold(t, math.Ceil(p*(1<<53))/(1<<53)) // an exact multiple of 2^-53
	}
}

// matchReference builds both tables from w and compares their draws
// and the generator states they leave behind.
func matchReference(t *testing.T, w []float64, seed uint64, draws int) {
	t.Helper()
	d, err := NewDiscrete(w)
	if err != nil {
		t.Fatalf("NewDiscrete(%d weights): %v", len(w), err)
	}
	ref := newRefDiscrete(w)
	a, b := rng.New(seed), rng.New(seed)
	for i := 0; i < draws; i++ {
		if got, want := d.Sample(a), ref.sample(b); got != want {
			t.Fatalf("n = %d, draw %d: packed table gave %d, float reference %d", len(w), i, got, want)
		}
	}
	if *a != *b {
		t.Fatalf("n = %d: generators diverged after %d matching draws", len(w), draws)
	}
}

// TestPrefetchIsANoOpForResults: a split draw — the bucket drawn a draw
// early and its cell prefetched, At afterwards — returns what Sample
// returns from the same stream, with the Prefetch call and without it
// (all the generic build's empty function amounts to), at the smallest
// and the largest table; Prefetch takes the first and the last bucket
// and leaves the cells as they were.
func TestPrefetchIsANoOpForResults(t *testing.T) {
	for _, n := range []int{2, MaxOutcomes} {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1 / float64(1+i%7)
		}
		d := MustNewDiscrete(w)
		cells := append([]uint64(nil), d.cells...)
		for _, bucket := range []int{0, n - 1} {
			a, b := rng.New(5), rng.New(5)
			d.Prefetch(bucket)
			if got, want := d.At(bucket, a), d.At(bucket, b); got != want || *a != *b {
				t.Fatalf("n = %d, bucket %d: At gave %d after a prefetch, %d without", n, bucket, got, want)
			}
		}
		whole, split, bare := rng.New(9), rng.New(9), rng.New(9)
		next, nextBare := split.Intn(n), bare.Intn(n)
		for i := 0; i < 100_000; i++ {
			want := d.Sample(whole)
			got := d.At(next, split)
			next = split.Intn(n)
			d.Prefetch(next)
			gotBare := d.At(nextBare, bare)
			nextBare = bare.Intn(n)
			if got != want || gotBare != want {
				t.Fatalf("n = %d, draw %d: Sample %d, split draw %d with the prefetch and %d without", n, i, want, got, gotBare)
			}
		}
		// The split streams are one bucket ahead of Sample's.
		if ahead := whole.Intn(n); ahead != next || ahead != nextBare || *whole != *split || *whole != *bare {
			t.Fatalf("n = %d: the split draws left their generators somewhere Sample's is not", n)
		}
		for i, c := range d.cells {
			if c != cells[i] {
				t.Fatalf("n = %d: cell %d changed", n, i)
			}
		}
	}
}

// fuzzWeights expands fuzz bytes into n weights: each byte picks a zero,
// a small integer or a value spread over many binades.
func fuzzWeights(data []byte, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		var b byte
		if len(data) > 0 {
			b = data[i%len(data)]
		}
		switch b % 4 {
		case 0:
			w[i] = 0
		case 1:
			w[i] = float64(b)
		default:
			w[i] = math.Ldexp(1+float64(b)/251, int(b%40)-20)
		}
	}
	return w
}

func FuzzDiscreteMatchesReference(f *testing.F) {
	// n is size+1, wrapped into 1 .. MaxOutcomes+1.
	f.Add([]byte{1}, uint16(0), uint64(1))               // n = 1
	f.Add([]byte{5, 5, 5, 5}, uint16(63), uint64(2))     // all equal
	f.Add([]byte{0, 0, 0, 9, 0}, uint16(299), uint64(3)) // mostly zeros
	f.Add([]byte{0, 4, 8}, uint16(10), uint64(4))        // only zeros
	f.Add([]byte{7, 2, 250, 33, 18}, uint16(MaxOutcomes-1), uint64(5))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint16(MaxOutcomes), uint64(6)) // one too many
	f.Fuzz(func(t *testing.T, data []byte, size uint16, seed uint64) {
		n := int(size)%(MaxOutcomes+1) + 1
		w := fuzzWeights(data, n)
		positive := false
		for _, v := range w {
			positive = positive || v > 0
		}
		_, err := NewDiscrete(w)
		switch {
		case n > MaxOutcomes:
			if !errors.Is(err, ErrTooManyOutcomes) {
				t.Fatalf("n = %d: err = %v, want ErrTooManyOutcomes", n, err)
			}
		case !positive:
			if !errors.Is(err, ErrZeroMass) {
				t.Fatalf("n = %d, no mass: err = %v, want ErrZeroMass", n, err)
			}
		default:
			matchReference(t, w, seed, 4*n+64)
		}
	})
}

// TestDiscreteMatchesReference runs the fuzz property on the shapes
// the selector produces and on the table-size boundary, so the plain
// test run covers them without the fuzz engine.
func TestDiscreteMatchesReference(t *testing.T) {
	equal := make([]float64, MaxOutcomes)
	inverse := make([]float64, MaxOutcomes)
	sparse := make([]float64, 1000)
	for i := range equal {
		equal[i] = 0.25
		inverse[i] = 1 / math.Sqrt(float64(1+i%97))
	}
	inverse[17] = 0 // the thief's own slot
	sparse[3], sparse[998] = 1e-300, 2
	for _, w := range [][]float64{{3.7}, {1, 1}, {0, 5}, equal, inverse, sparse} {
		matchReference(t, w, uint64(len(w)), 200000)
	}
}

// TestBuilderReusesScratch: tables built back to back on one Builder
// are independent of each other and of the scratch, and a steady-state
// Build allocates only the table.
func TestBuilderReusesScratch(t *testing.T) {
	var b Builder
	w1 := []float64{1, 2, 3, 4, 0, 6}
	w2 := []float64{9, 0, 0, 1, 1, 1}
	d1, err := b.Build(w1)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]uint64(nil), d1.cells...)
	if _, err := b.Build(w2); err != nil {
		t.Fatal(err)
	}
	for i, c := range d1.cells {
		if c != before[i] {
			t.Fatalf("cell %d of the first table changed when the second was built", i)
		}
	}
	fresh, err := NewDiscrete(w1)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range fresh.cells {
		if c != before[i] {
			t.Fatalf("cell %d differs between a fresh and a reused builder", i)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := b.Build(w1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("steady-state Build made %v allocations, want 1 (the table)", allocs)
	}
}
