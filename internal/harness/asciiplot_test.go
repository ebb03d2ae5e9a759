package harness

import (
	"math"
	"strings"
	"testing"

	"distws/internal/obs"
	"distws/internal/sim"
	"distws/internal/trace"
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

// TestLatencyPlotIsOrdered renders the two-curve SL/EL plot of fig12 and
// fig13 twenty times and requires one string, legend in the order given:
// the curves used to arrive in a map, and glyphs and legend followed its
// iteration order from run to run.
func TestLatencyPlotIsOrdered(t *testing.T) {
	ramp := func(step sim.Time) *obs.OccupancyCurve {
		tr := &trace.Trace{End: 100}
		for r := 0; r < 4; r++ {
			at := sim.Time(r) * step
			tr.Transitions = append(tr.Transitions, []trace.Transition{
				{Time: at, State: trace.Active}, {Time: tr.End - at, State: trace.Idle}})
		}
		return obs.Occupancy(tr)
	}
	curves := []namedCurve{{"Reference", ramp(10)}, {"Tofu Half", ramp(3)}}
	xs := obs.OccupancySamples(4, 1)
	first := latencyPlot("SL/EL", curves, xs)
	if ref, opt := strings.Index(first, "Reference SL"), strings.Index(first, "Tofu Half SL"); ref < 0 || opt < ref {
		t.Fatalf("legend out of order:\n%s", first)
	}
	for i := 1; i < 20; i++ {
		if again := latencyPlot("SL/EL", curves, xs); again != first {
			t.Fatalf("rendering %d differs from the first:\n%s\n%s", i, first, again)
		}
	}
}
