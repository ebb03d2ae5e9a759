package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): counters as plain samples,
// histograms as cumulative `_bucket{le="..."}` series with `_sum` and
// `_count`. Metric families are emitted in sorted name order, so for a
// deterministic run the exposition text is byte-for-byte reproducible —
// a property the tests assert.
func (g *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	counters, hists := g.names()
	for _, name := range counters {
		c := g.Counter(name)
		pn := promName(name)
		fmt.Fprintf(bw, "# TYPE %s counter\n", pn)
		fmt.Fprintf(bw, "%s %d\n", pn, c.Value())
	}
	for _, name := range hists {
		h := g.Histogram(name)
		pn := promName(name)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", pn)
		var cum uint64
		for i := 0; i < histBuckets; i++ {
			n := h.buckets[i].Load()
			if n == 0 {
				continue
			}
			cum += n
			// Bucket i tops out at 2^i - 1 (the shift wraps to 0 at i = 64).
			fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", pn, uint64(1)<<i-1, cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count())
		fmt.Fprintf(bw, "%s_sum %d\n", pn, h.Sum())
		fmt.Fprintf(bw, "%s_count %d\n", pn, h.Count())
	}
	return bw.Flush()
}

// promName sanitizes a metric name to the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}
