package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMinMax(t *testing.T) {
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max")
	}
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile([]float64{7}, 0.3) != 7 {
		t.Fatal("singleton quantile")
	}
	// Input must not be mutated.
	unsorted := []float64{3, 1, 2}
	Quantile(unsorted, 0.5)
	if unsorted[0] != 3 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.5, 1, 1.5, 2, 9.99, 10}
	h := Histogram(xs, 5, 0, 10)
	if len(h) != 5 {
		t.Fatalf("bins %v", h)
	}
	// [0,2): 0, 0.5, 1, 1.5 -> 4; [8,10]: 9.99 and 10 -> 2.
	if h[0] != 4 || h[4] != 2 {
		t.Fatalf("histogram %v", h)
	}
	if Histogram(xs, 0, 0, 1) != nil || Histogram(xs, 3, 5, 5) != nil {
		t.Fatal("degenerate histograms not nil")
	}
	// Out-of-range values ignored.
	h2 := Histogram([]float64{-1, 11}, 2, 0, 10)
	if h2[0] != 0 || h2[1] != 0 {
		t.Fatalf("out-of-range counted: %v", h2)
	}
}

// Property: Min <= Quantile(q) <= Max and quantiles are monotone in q.
func TestPropertyQuantileBounds(t *testing.T) {
	f := func(raw []uint16, q1, q2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		a := float64(q1%101) / 100
		b := float64(q2%101) / 100
		if a > b {
			a, b = b, a
		}
		qa, qb := Quantile(xs, a), Quantile(xs, b)
		return qa >= Min(xs) && qb <= Max(xs) && qa <= qb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram counts sum to the number of in-range values.
func TestPropertyHistogramTotal(t *testing.T) {
	f := func(raw []uint8, bins uint8) bool {
		n := int(bins%10) + 1
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		h := Histogram(xs, n, 0, 255)
		total := 0
		for _, c := range h {
			total += c
		}
		return total == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
