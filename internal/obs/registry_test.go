package obs

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	g := NewRegistry()
	c := g.Counter("steals")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if g.Counter("steals") != c {
		t.Fatal("same name returned a different counter")
	}
	var nilC *Counter
	nilC.Inc()
	nilC.Add(3)
	if nilC.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	g := NewRegistry()
	h := g.Histogram("lat")
	// 1000 observations of value 100 and 10 of value 100000: read off
	// the buckets as an exposition reader would, the p50 must land in
	// 100's bucket [64,127], the p99.9 in 100000's [65536,131071].
	for i := 0; i < 1000; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100000)
	}
	if h.Count() != 1010 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Sum() != 1000*100+10*100000 {
		t.Fatalf("sum %d", h.Sum())
	}
	if g.Histogram("lat") != h {
		t.Fatal("same name returned a different histogram")
	}
	// quantileBucket returns the upper bound of the bucket holding the
	// q-quantile observation.
	quantileBucket := func(q float64) uint64 {
		rank := uint64(q * float64(h.Count()))
		var cum uint64
		for i := range h.buckets {
			if cum += h.buckets[i].Load(); cum > rank {
				return 1<<uint(i) - 1
			}
		}
		return 0
	}
	if ub := quantileBucket(0.5); ub != 127 {
		t.Fatalf("p50 in the bucket ending at %d, want [64,127]", ub)
	}
	if ub := quantileBucket(0.999); ub != 131071 {
		t.Fatalf("p99.9 in the bucket ending at %d, want [65536,131071]", ub)
	}
	if h.buckets[7].Load() != 1000 || h.buckets[17].Load() != 10 {
		t.Fatalf("bucket counts %d and %d, want 1000 and 10", h.buckets[7].Load(), h.buckets[17].Load())
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(5)
	if nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Fatal("nil histogram not inert")
	}
	h := &Histogram{}
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram not zero")
	}
	h.Observe(-17) // clamps to zero
	h.Observe(0)
	if h.Count() != 2 || h.Sum() != 0 || h.buckets[0].Load() != 2 {
		t.Fatalf("clamped observations: count %d sum %d zero bucket %d",
			h.Count(), h.Sum(), h.buckets[0].Load())
	}
	h.Observe(math.MaxInt64) // the top bucket holds the largest value
	if h.buckets[63].Load() != 1 || h.Sum() != math.MaxInt64 {
		t.Fatalf("max observation: bucket %d sum %d", h.buckets[63].Load(), h.Sum())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	g := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Counter("c").Inc()
				g.Histogram("h").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := g.Counter("c").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := g.Histogram("h").Count(); got != 8000 {
		t.Fatalf("concurrent histogram count = %d, want 8000", got)
	}
}

func TestWritePrometheusDeterministicAndWellFormed(t *testing.T) {
	build := func() *Registry {
		g := NewRegistry()
		g.Counter("sim_steal_requests_total").Add(12)
		g.Counter("a_first_counter").Add(1)
		h := g.Histogram("sim_steal_latency_ns")
		for _, v := range []int64{0, 10, 20, 30, 5000} {
			h.Observe(v)
		}
		return g
	}
	var b1, b2 bytes.Buffer
	if err := build().WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("exposition text differs between identical registries")
	}
	out := b1.String()
	for _, want := range []string{
		"# TYPE sim_steal_requests_total counter",
		"sim_steal_requests_total 12",
		"# TYPE sim_steal_latency_ns histogram",
		`sim_steal_latency_ns_bucket{le="0"} 1`,
		`sim_steal_latency_ns_bucket{le="15"} 2`,
		`sim_steal_latency_ns_bucket{le="31"} 4`,
		`sim_steal_latency_ns_bucket{le="8191"} 5`,
		`sim_steal_latency_ns_bucket{le="+Inf"} 5`,
		"sim_steal_latency_ns_sum 5060",
		"sim_steal_latency_ns_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Sorted family order: a_first_counter before sim_steal_requests.
	if strings.Index(out, "a_first_counter") > strings.Index(out, "sim_steal_requests_total") {
		t.Fatal("families not sorted by name")
	}
	// Cumulative buckets must be non-decreasing.
	var last int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "sim_steal_latency_ns_bucket") {
			v, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if v < last {
				t.Fatalf("buckets not cumulative at %q", line)
			}
			last = v
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"ok_name":      "ok_name",
		"has.dots":     "has_dots",
		"9starts":      "_starts",
		"with spaces!": "with_spaces_",
		"":             "_",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
