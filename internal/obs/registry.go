package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a set of named metrics: monotonic counters, log-bucketed
// histograms, and dense per-link matrices. Metric creation takes a
// mutex; every update after that is a lock-free atomic, so the hot
// paths of both substrates share one implementation. In the simulator
// all updates happen on one goroutine in deterministic event order, so
// the final registry contents — and the exported text — are a pure
// function of the run. In this package "metrics" means this live
// registry; what is computed from a finished trace (occupancy, SL/EL,
// steal pairing — the former internal/metrics) is an "analysis".
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	matrices map[string]*Matrix
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		matrices: make(map[string]*Matrix),
	}
}

// Counter returns the named counter, creating it on first use.
func (g *Registry) Counter(name string) *Counter {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.counters[name]
	if !ok {
		c = &Counter{}
		g.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (g *Registry) Histogram(name string) *Histogram {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, ok := g.hists[name]
	if !ok {
		h = &Histogram{}
		g.hists[name] = h
	}
	return h
}

// Matrix returns the named n×n matrix, creating it on first use. A
// matrix costs n*n*8 bytes — callers gate creation at large n (the
// simulator caps it at MatrixRankLimit ranks). An existing matrix with
// a different size is returned as-is; callers pick one size per name.
func (g *Registry) Matrix(name string, n int) *Matrix {
	g.mu.Lock()
	defer g.mu.Unlock()
	m, ok := g.matrices[name]
	if !ok {
		m = &Matrix{n: n, cells: make([]atomic.Uint64, n*n)}
		g.matrices[name] = m
	}
	return m
}

// counterNames returns the registered counter names, sorted, so every
// export is deterministic.
func (g *Registry) counterNames() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	names := make([]string, 0, len(g.counters))
	for n := range g.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (g *Registry) histNames() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	names := make([]string, 0, len(g.hists))
	for n := range g.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (g *Registry) matrixNames() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	names := make([]string, 0, len(g.matrices))
	for n := range g.matrices {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Counter is a monotonic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. Nil-safe, so call sites need no enabled check.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets is the bucket count: bucket i holds values whose
// bits.Len64 is i, i.e. {0}, {1}, {2,3}, {4..7}, ... — 65 buckets
// cover the whole uint64 range.
const histBuckets = 65

// Histogram counts non-negative int64 observations in power-of-two
// buckets. It trades per-value storage for O(1) memory and lock-free
// updates; quantiles are estimated by linear interpolation inside the
// resolved bucket, so they carry at most a 2× bucket-width error —
// the right tool for live dashboards, while exact percentiles come
// from the event trace (StealLatency).
type Histogram struct {
	count, sum atomic.Uint64
	buckets    [histBuckets]atomic.Uint64
}

// Observe records one value. Negative values clamp to zero (virtual
// durations are non-negative by construction; the clamp keeps a buggy
// caller from corrupting bucket math). Nil-safe.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(uint64(v))
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// bucketBounds returns the value range [lo, hi] covered by bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	return uint64(1) << (i - 1), uint64(1)<<i - 1
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the buckets,
// interpolating linearly inside the bucket the quantile lands in.
// Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based.
	target := uint64(q*float64(total-1)) + 1
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if cum+n >= target {
			lo, hi := bucketBounds(i)
			if n == 1 || hi == lo {
				return float64(lo)
			}
			frac := float64(target-cum-1) / float64(n-1)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += n
	}
	return 0
}

// Matrix is a dense n×n grid of counters, indexed (from, to) — the
// per-link traffic matrix. Out-of-range indices are ignored rather
// than panicking: observability must never take the system down.
type Matrix struct {
	n     int
	cells []atomic.Uint64
}

// N returns the matrix dimension. Zero on nil.
func (m *Matrix) N() int {
	if m == nil {
		return 0
	}
	return m.n
}

// Inc adds one to cell (from, to). Nil-safe.
func (m *Matrix) Inc(from, to int) { m.Add(from, to, 1) }

// Add adds d to cell (from, to). Nil-safe.
func (m *Matrix) Add(from, to int, d uint64) {
	if m == nil || from < 0 || from >= m.n || to < 0 || to >= m.n {
		return
	}
	m.cells[from*m.n+to].Add(d)
}

// At returns cell (from, to).
func (m *Matrix) At(from, to int) uint64 {
	if m == nil || from < 0 || from >= m.n || to < 0 || to >= m.n {
		return 0
	}
	return m.cells[from*m.n+to].Load()
}

// Rows copies the matrix out as [from][to] counts.
func (m *Matrix) Rows() [][]uint64 {
	if m == nil {
		return nil
	}
	out := make([][]uint64, m.n)
	for i := 0; i < m.n; i++ {
		row := make([]uint64, m.n)
		for j := 0; j < m.n; j++ {
			row[j] = m.cells[i*m.n+j].Load()
		}
		out[i] = row
	}
	return out
}
