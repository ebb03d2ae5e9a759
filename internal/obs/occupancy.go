package obs

// This file computes the paper's load-balancing efficiency measures
// from activity traces (§III):
//
//   - workers(t): the number of ranks in an active phase at time t;
//   - the occupancy ratio O(t) = workers(t)/N and its maximum Wmax;
//   - the starting latency SL(x) = min{t : O(t) >= x} / T;
//   - the ending latency EL(x) = (T - max{t : O(t) >= x}) / T.
//
// SL(x) is how quickly, relative to the whole run, the scheduler first
// got a fraction x of the ranks busy; EL(x) is how close to the end it
// last kept them busy. An ideal scheduler has both near zero for x
// close to 1.

import (
	"cmp"
	"fmt"
	"slices"

	"distws/internal/sim"
	"distws/internal/trace"
)

// OccupancyCurve is the step function workers(t) of one execution.
type OccupancyCurve struct {
	// N is the number of ranks; T the makespan.
	N int
	T sim.Time
	// times[i] is the instant the worker count becomes workers[i]; the
	// count holds until times[i+1] (or T for the last entry). times is
	// strictly increasing and starts at 0 with workers[0] ranks active
	// (normally 0 or 1).
	times   []sim.Time
	workers []int
	wmax    int
}

// Occupancy folds a trace's per-rank transitions into the global
// workers(t) curve.
func Occupancy(tr *trace.Trace) *OccupancyCurve {
	type delta struct {
		t sim.Time
		d int
	}
	var deltas []delta
	for _, rankTr := range tr.Transitions {
		for _, x := range rankTr {
			if x.State == trace.Active {
				deltas = append(deltas, delta{x.Time, +1})
			} else {
				deltas = append(deltas, delta{x.Time, -1})
			}
		}
	}
	slices.SortFunc(deltas, func(a, b delta) int { return cmp.Compare(a.t, b.t) })

	c := &OccupancyCurve{N: tr.Ranks(), T: tr.End}
	cur := 0
	c.times = append(c.times, 0)
	c.workers = append(c.workers, 0)
	for i := 0; i < len(deltas); {
		t := deltas[i].t
		for i < len(deltas) && deltas[i].t == t {
			cur += deltas[i].d
			i++
		}
		if cur < 0 || cur > c.N {
			panic(fmt.Sprintf("metrics: workers(t) = %d outside [0, %d] — corrupt trace", cur, c.N))
		}
		if t == c.times[len(c.times)-1] {
			c.workers[len(c.workers)-1] = cur
		} else {
			c.times = append(c.times, t)
			c.workers = append(c.workers, cur)
		}
		if cur > c.wmax {
			c.wmax = cur
		}
	}
	return c
}

// Wmax returns the maximum number of simultaneously active ranks.
func (c *OccupancyCurve) Wmax() int { return c.wmax }

// MaxOccupancy returns Wmax/N.
func (c *OccupancyCurve) MaxOccupancy() float64 {
	if c.N == 0 {
		return 0
	}
	return float64(c.wmax) / float64(c.N)
}

// Steps returns copies of the curve's breakpoints: times[i] is when the
// active count becomes counts[i].
func (c *OccupancyCurve) Steps() (times []sim.Time, counts []int) {
	return append([]sim.Time(nil), c.times...), append([]int(nil), c.workers...)
}

// MeanOccupancy returns the time-averaged occupancy ratio over [0, T]:
// the area under O(t) divided by T. Equal to the parallel efficiency of
// the run when work never idles while resident.
func (c *OccupancyCurve) MeanOccupancy() float64 {
	if c.T == 0 || c.N == 0 {
		return 0
	}
	var area float64
	for i, w := range c.workers {
		end := c.T
		if i+1 < len(c.times) {
			end = c.times[i+1]
		}
		area += float64(w) * float64(end-c.times[i])
	}
	return area / (float64(c.T) * float64(c.N))
}

// threshold converts an occupancy fraction to a worker count, treating
// x as "at least a fraction x of ranks active". x = 0 maps to 1 worker
// (occupancy strictly positive reads better than the trivial 0).
func (c *OccupancyCurve) threshold(x float64) int {
	w := int(float64(c.N) * x)
	if float64(w) < float64(c.N)*x {
		w++
	}
	if w < 1 {
		w = 1
	}
	return w
}

// StartingLatency returns SL(x): the first time the occupancy ratio
// reached x, as a fraction of the makespan. ok is false when the run
// never reached that occupancy (the paper's 8192-rank run never exceeds
// 43%, Figure 5).
func (c *OccupancyCurve) StartingLatency(x float64) (sl float64, ok bool) {
	need := c.threshold(x)
	for i, w := range c.workers {
		if w >= need {
			if c.T == 0 {
				return 0, true
			}
			return float64(c.times[i]) / float64(c.T), true
		}
	}
	return 0, false
}

// EndingLatency returns EL(x): how far before the end of the run the
// occupancy ratio was last at least x, as a fraction of the makespan.
func (c *OccupancyCurve) EndingLatency(x float64) (el float64, ok bool) {
	need := c.threshold(x)
	for i := len(c.workers) - 1; i >= 0; i-- {
		if c.workers[i] >= need {
			// The occupancy holds until the next step (or T).
			end := c.T
			if i+1 < len(c.times) {
				end = c.times[i+1]
			}
			if c.T == 0 {
				return 0, true
			}
			return float64(c.T-end) / float64(c.T), true
		}
	}
	return 0, false
}

// LatencyPoint is one (occupancy, SL, EL) sample of Figures 4/5/12/13.
type LatencyPoint struct {
	Occupancy float64
	// Reached is false when the run never attained this occupancy; SL
	// and EL are then meaningless.
	Reached bool
	SL      float64
	EL      float64
}

// LatencyCurve samples SL and EL at the given occupancy fractions.
func (c *OccupancyCurve) LatencyCurve(xs []float64) []LatencyPoint {
	pts := make([]LatencyPoint, len(xs))
	for i, x := range xs {
		sl, ok1 := c.StartingLatency(x)
		el, ok2 := c.EndingLatency(x)
		pts[i] = LatencyPoint{Occupancy: x, SL: sl, EL: el, Reached: ok1 && ok2}
	}
	return pts
}

// OccupancySamples returns evenly spaced occupancy fractions
// 1/n, 2/n, ..., up to max (inclusive), for latency curves.
func OccupancySamples(n int, max float64) []float64 {
	var xs []float64
	for i := 1; i <= n; i++ {
		x := float64(i) / float64(n)
		if x > max+1e-12 {
			break
		}
		xs = append(xs, x)
	}
	return xs
}
