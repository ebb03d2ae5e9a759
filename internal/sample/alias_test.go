package sample

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"distws/internal/rng"
)

// pdf normalizes w: the distribution a table built from w must sample.
func pdf(w []float64) []float64 {
	var total float64
	for _, v := range w {
		total += v
	}
	p := make([]float64, len(w))
	for i, v := range w {
		p[i] = v / total
	}
	return p
}

func TestErrors(t *testing.T) {
	if _, err := NewDiscrete(nil); !errors.Is(err, ErrNoOutcomes) {
		t.Fatalf("nil weights: %v", err)
	}
	if _, err := NewDiscrete([]float64{1, -2, 3}); !errors.Is(err, ErrNegativeWeight) {
		t.Fatalf("negative weight: %v", err)
	}
	if _, err := NewDiscrete([]float64{1, math.NaN()}); !errors.Is(err, ErrNegativeWeight) {
		t.Fatalf("NaN weight: %v", err)
	}
	if _, err := NewDiscrete([]float64{0, 0}); !errors.Is(err, ErrZeroMass) {
		t.Fatalf("zero mass: %v", err)
	}
	if _, err := NewDiscrete(make([]float64, MaxOutcomes+1)); !errors.Is(err, ErrTooManyOutcomes) {
		t.Fatalf("%d outcomes: %v", MaxOutcomes+1, err)
	}
}

// mustDiscrete builds the table for weights known to be valid.
func mustDiscrete(tb testing.TB, weights []float64) *Discrete {
	tb.Helper()
	d, err := NewDiscrete(weights)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

func TestSingleOutcome(t *testing.T) {
	d := mustDiscrete(t, []float64{3.7})
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		if d.Sample(r) != 0 {
			t.Fatal("single-outcome distribution sampled non-zero")
		}
	}
	if d.N() != 1 {
		t.Fatalf("N() = %d", d.N())
	}
}

func TestZeroWeightNeverSampled(t *testing.T) {
	d := mustDiscrete(t, []float64{1, 0, 1, 0, 1})
	r := rng.New(2)
	for i := 0; i < 100000; i++ {
		v := d.Sample(r)
		if v == 1 || v == 3 {
			t.Fatalf("sampled zero-weight outcome %d", v)
		}
	}
}

func TestUniformCase(t *testing.T) {
	const n = 8
	w := make([]float64, n)
	for i := range w {
		w[i] = 2.5
	}
	d := mustDiscrete(t, w)
	counts := sampleCounts(d, 80000, 3)
	for i, c := range counts {
		if math.Abs(float64(c)/80000-1.0/n) > 0.01 {
			t.Fatalf("outcome %d frequency %v, want ~%v", i, float64(c)/80000, 1.0/n)
		}
	}
}

func TestSkewedFrequencies(t *testing.T) {
	w := []float64{1, 2, 3, 4}
	d := mustDiscrete(t, w)
	const n = 400000
	counts := sampleCounts(d, n, 4)
	for i, c := range counts {
		want := w[i] / 10
		got := float64(c) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("outcome %d frequency %v, want %v", i, got, want)
		}
	}
}

func sampleCounts(d *Discrete, n int, seed uint64) []int {
	r := rng.New(seed)
	counts := make([]int, d.N())
	for i := 0; i < n; i++ {
		counts[d.Sample(r)]++
	}
	return counts
}

// Property: construction succeeds for any positive weight vector and
// samples stay in range and off the zero-weight outcomes.
func TestPropertyValidConstruction(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		anyPositive := false
		for i, v := range raw {
			w[i] = float64(v)
			if v > 0 {
				anyPositive = true
			}
		}
		d, err := NewDiscrete(w)
		if !anyPositive {
			return errors.Is(err, ErrZeroMass)
		}
		if err != nil {
			return false
		}
		if d.N() != len(w) {
			return false
		}
		r := rng.New(99)
		for i := 0; i < 200; i++ {
			v := d.Sample(r)
			if v < 0 || v >= len(w) || w[v] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: empirical frequencies track the PDF for random weights
// (coarse bound, large samples on small supports).
func TestPropertyFrequenciesTrackPDF(t *testing.T) {
	f := func(raw [5]uint8, seed uint64) bool {
		w := make([]float64, 5)
		anyPositive := false
		for i, v := range raw {
			w[i] = float64(v)
			if v > 0 {
				anyPositive = true
			}
		}
		if !anyPositive {
			return true
		}
		d := mustDiscrete(t, w)
		want := pdf(w)
		const n = 50000
		r := rng.New(seed)
		counts := make([]int, 5)
		for i := 0; i < n; i++ {
			counts[d.Sample(r)]++
		}
		for i := range w {
			if math.Abs(float64(counts[i])/n-want[i]) > 0.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeSupport(t *testing.T) {
	// Mimic the paper's use at the largest support a table holds: 2048
	// ranks with 1/distance weights.
	const n = MaxOutcomes
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(1+i%37)
	}
	d := mustDiscrete(t, w)
	want := pdf(w)
	r := rng.New(5)
	counts := make([]int, n)
	for i := 0; i < 1_000_000; i++ {
		counts[d.Sample(r)]++
	}
	// Aggregate by weight class to get statistically meaningful bins.
	classTotal := map[int]float64{}
	classCount := map[int]int{}
	for i := range w {
		classTotal[i%37] += want[i]
		classCount[i%37] += counts[i]
	}
	for class, p := range classTotal {
		got := float64(classCount[class]) / 1_000_000
		if math.Abs(got-p) > 0.005 {
			t.Fatalf("class %d frequency %v, want %v", class, got, p)
		}
	}
}

func BenchmarkSample2048(b *testing.B) {
	w := make([]float64, MaxOutcomes)
	for i := range w {
		w[i] = 1 / float64(1+i)
	}
	d := mustDiscrete(b, w)
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += d.Sample(r)
	}
	_ = sink
}

func BenchmarkBuild2048(b *testing.B) {
	w := make([]float64, MaxOutcomes)
	for i := range w {
		w[i] = 1 / float64(1+i)
	}
	var bld Builder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bld.Build(w); err != nil {
			b.Fatal(err)
		}
	}
}
