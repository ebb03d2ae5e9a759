// Package sample implements O(1) sampling from arbitrary discrete
// probability distributions using Walker's alias method.
//
// It replaces the GNU Scientific Library's gsl_ran_discrete, which the
// paper's modified UTS uses to sample the distance-skewed victim
// distribution. Construction is O(n); each draw costs two generator
// outputs and one 8-byte table load. A table set larger than the cache
// makes that load the whole cost of a draw, so a draw can be split: the
// caller draws the bucket index ahead of time, Prefetches its cell, and
// finishes with At once the value is needed; Sample is the two
// back to back.
//
// A table is one []uint64. Cell i packs the acceptance threshold of
// bucket i (high 53 bits) and its alias outcome (low 11 bits), so a
// table holds at most MaxOutcomes = 2^11 outcomes. The threshold is
// the acceptance probability p as an integer: a uniform draw u in
// [0, 2^53) accepts iff u < ceil(p * 2^53), which is exactly the
// comparison float64(u)/2^53 < p that rng.Xoshiro256.Float64 would
// make (see Threshold), so integer tables reproduce float tables draw
// for draw.
package sample

import (
	"errors"
	"fmt"
	"math"

	"distws/internal/rng"
)

const (
	aliasBits = 11
	aliasMask = 1<<aliasBits - 1
	// thresholdBits is the width of a uniform draw: the 53 bits
	// rng.Xoshiro256.Float64 keeps of a generator output.
	thresholdBits = 53

	// MaxOutcomes is the largest support a Discrete can hold: the alias
	// must fit the 11 bits a cell has left beside its threshold.
	MaxOutcomes = 1 << aliasBits
)

// Discrete is a preprocessed discrete distribution over {0, ..., n-1}.
// The zero value is an empty table (N() == 0) that must not be sampled.
type Discrete struct {
	cells []uint64 // threshold<<aliasBits | alias, per bucket
}

// Errors returned by NewDiscrete and Builder.Build.
var (
	ErrNoOutcomes      = errors.New("sample: empty weight vector")
	ErrTooManyOutcomes = errors.New("sample: more than MaxOutcomes weights")
	ErrNegativeWeight  = errors.New("sample: negative weight")
	ErrZeroMass        = errors.New("sample: all weights are zero")
)

// Threshold returns the integer acceptance threshold of probability p:
// for every k in [0, 2^53), float64(k)/2^53 < p iff k < Threshold(p).
// Both k -> float64(k)/2^53 and p -> p * 2^53 are exact (a scaling by
// a power of two of a value with at most 53 significant bits), so the
// real-number inequality k < p * 2^53 is the float one, and for an
// integer k it is k < ceil(p * 2^53). Any p >= 1 maps to 2^53 (always
// accept), any p <= 0 or NaN to 0 (never accept).
func Threshold(p float64) uint64 {
	switch {
	case p >= 1:
		return 1 << thresholdBits
	case p > 0:
		return uint64(math.Ceil(p * (1 << thresholdBits)))
	}
	return 0
}

// Accept draws once from r and reports whether the draw falls below
// threshold: it is r.Float64() < p for threshold = Threshold(p), on the
// same generator output.
func Accept(r *rng.Xoshiro256, threshold uint64) bool {
	return r.Uint64()>>(64-thresholdBits) < threshold
}

// Builder constructs alias tables, reusing its construction scratch
// from one Build to the next. A caller that builds many tables of the
// same size (one per thief, say) pays for the scratch once. The zero
// value is ready to use; a Builder is not safe for concurrent use.
type Builder struct {
	scaled       []float64
	small, large []int32
}

// NewDiscrete builds an alias table from non-negative weights. Weights
// need not be normalized. At least one weight must be positive, and
// there can be at most MaxOutcomes of them.
func NewDiscrete(weights []float64) (*Discrete, error) {
	var b Builder
	d, err := b.Build(weights)
	if err != nil {
		return nil, err
	}
	return &d, nil
}

// Build is NewDiscrete on the builder's scratch. The returned table
// does not alias the scratch or weights.
func (b *Builder) Build(weights []float64) (Discrete, error) {
	n := len(weights)
	if n == 0 {
		return Discrete{}, ErrNoOutcomes
	}
	if n > MaxOutcomes {
		return Discrete{}, ErrTooManyOutcomes
	}
	var total float64
	for i, w := range weights {
		if !(w >= 0) {
			return Discrete{}, fmt.Errorf("%w: weight[%d] = %v", ErrNegativeWeight, i, w)
		}
		total += w
	}
	if total == 0 {
		return Discrete{}, ErrZeroMass
	}

	if cap(b.scaled) < n {
		b.scaled = make([]float64, n)
		b.small = make([]int32, 0, n)
		b.large = make([]int32, 0, n)
	}
	// Scale so the average bucket mass is exactly 1.
	scaled := b.scaled[:n]
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
	}

	// Vose's stable two-worklist construction.
	small, large := b.small[:0], b.large[:0]
	for i := n - 1; i >= 0; i-- {
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	cells := make([]uint64, n)
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		// scaled[s] < 1, so its threshold fits the 53 bits.
		cells[s] = Threshold(scaled[s])<<aliasBits | uint64(l)
		scaled[l] = (scaled[l] + scaled[s]) - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Whatever remains has mass 1 up to floating-point error. Such a
	// bucket is its own alias, so the draw returns it on either side of
	// the comparison and the threshold field is never consulted.
	for _, l := range large {
		cells[l] = uint64(l)
	}
	for _, s := range small {
		cells[s] = uint64(s)
	}
	return Discrete{cells: cells}, nil
}

// MustNewDiscrete is like NewDiscrete but panics on error. For use with
// weight vectors known to be valid by construction.
func MustNewDiscrete(weights []float64) *Discrete {
	d, err := NewDiscrete(weights)
	if err != nil {
		panic(err)
	}
	return d
}

// N returns the number of outcomes.
func (d *Discrete) N() int { return len(d.cells) }

// Sample draws one outcome using the given generator. It consumes the
// stream exactly as r.Intn(n) followed by r.Float64() would.
func (d *Discrete) Sample(r *rng.Xoshiro256) int {
	return d.At(r.Intn(len(d.cells)), r)
}

// At finishes a draw whose bucket i, uniform in [0, N()), the caller
// already drew: it consumes one generator output for the acceptance
// test and returns the bucket or its alias. Splitting Sample here lets
// a caller draw the bucket early and Prefetch its cell.
func (d *Discrete) At(i int, r *rng.Xoshiro256) int {
	c := d.cells[i]
	if Accept(r, c>>aliasBits) {
		return i
	}
	return int(c & aliasMask)
}

// Prefetch starts bringing bucket i's cell into the cache, for an At(i)
// that comes later. It changes no result; on a GOARCH without a
// prefetch stub it does nothing.
func (d *Discrete) Prefetch(i int) { prefetch(&d.cells[i]) }
