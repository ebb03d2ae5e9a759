// Package stats provides small descriptive-statistics helpers: the
// distance and latency summaries of `uts -topology` and the repository
// benchmark's quantiles.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Min returns the smallest value, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It panics on an empty slice
// or out-of-range q.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Histogram bins xs into n equal-width buckets over [min, max] and
// returns the counts. Values exactly at max land in the last bucket.
func Histogram(xs []float64, n int, min, max float64) []int {
	if n <= 0 || max <= min {
		return nil
	}
	counts := make([]int, n)
	width := (max - min) / float64(n)
	for _, x := range xs {
		if x < min || x > max {
			continue
		}
		b := int((x - min) / width)
		if b >= n {
			b = n - 1
		}
		counts[b]++
	}
	return counts
}
