package harness

import (
	"math"
	"strings"
	"testing"
)

func TestASCIIPlot(t *testing.T) {
	out := ASCIIPlot("demo",
		[]Series{
			{Name: "a", X: []float64{0, 1, 2}, Y: []float64{0, 1, 4}},
			{Name: "b", X: []float64{0, 1, 2}, Y: []float64{4, 1, 0}},
		}, 20, 6)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "* a") || !strings.Contains(out, "o b") {
		t.Fatalf("plot missing elements:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatal("no markers plotted")
	}
	empty := ASCIIPlot("empty", nil, 20, 6)
	if !strings.Contains(empty, "no data") {
		t.Fatalf("empty plot: %s", empty)
	}
	// NaN points are skipped, not plotted.
	nan := ASCIIPlot("nan", []Series{{Name: "a", X: []float64{0, 1}, Y: []float64{math.NaN(), 2}}}, 20, 6)
	if strings.Contains(nan, "no data") {
		t.Fatal("single valid point treated as no data")
	}
}
