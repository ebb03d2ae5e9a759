package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a set of named metrics: monotonic counters and
// log-bucketed histograms, read after the run. Metric creation takes a
// mutex; every update after that is a lock-free atomic, so the shard
// engines of a sharded run can write one registry concurrently. The
// updates commute, so the final registry contents — and the exported
// text — are a pure function of the run. In this package "metrics"
// means this registry; what is computed from a finished trace
// (occupancy, SL/EL, steal pairing, the rank×rank traffic matrix) is an
// "analysis".
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
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

// names returns the registered counter and histogram names, each
// sorted, so every export is deterministic.
func (g *Registry) names() (counters, hists []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return sortedKeys(g.counters), sortedKeys(g.hists)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
// updates; the exposition renders the buckets, while exact percentiles
// come from the event trace (StealLatency).
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
