package obs

import (
	"math"
	"testing"
	"testing/quick"

	"distws/internal/sim"
	"distws/internal/trace"
)

// buildTrace constructs a trace where rank i is active on the given
// [start, end) intervals.
func buildTrace(end sim.Time, intervals [][][2]sim.Time) *trace.Trace {
	r := trace.NewRecorder(len(intervals))
	for rank, spans := range intervals {
		for _, span := range spans {
			r.Record(rank, span[0], trace.Active)
			r.Record(rank, span[1], trace.Idle)
		}
	}
	return r.Finish(end)
}

func TestOccupancyBasic(t *testing.T) {
	// Rank 0 active [10,90), rank 1 active [20,50) and [60,80).
	tr := buildTrace(100, [][][2]sim.Time{
		{{10, 90}},
		{{20, 50}, {60, 80}},
	})
	c := Occupancy(tr)
	cases := []struct {
		at   sim.Time
		want int
	}{
		{0, 0}, {5, 0}, {10, 1}, {15, 1}, {20, 2}, {49, 2},
		{50, 1}, {55, 1}, {60, 2}, {79, 2}, {80, 1}, {90, 0}, {99, 0},
	}
	for _, cse := range cases {
		if got := c.WorkersAt(cse.at); got != cse.want {
			t.Fatalf("WorkersAt(%d) = %d, want %d", cse.at, got, cse.want)
		}
	}
	if c.Wmax() != 2 {
		t.Fatalf("Wmax = %d", c.Wmax())
	}
	if c.MaxOccupancy() != 1.0 {
		t.Fatalf("MaxOccupancy = %v", c.MaxOccupancy())
	}
}

func TestMeanOccupancy(t *testing.T) {
	// One rank active half the time: mean occupancy 0.5.
	tr := buildTrace(100, [][][2]sim.Time{{{0, 50}}})
	c := Occupancy(tr)
	if got := c.MeanOccupancy(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("MeanOccupancy = %v, want 0.5", got)
	}
	// Two ranks, one always active, one never: 0.5 again.
	tr2 := buildTrace(100, [][][2]sim.Time{{{0, 100}}, {}})
	if got := Occupancy(tr2).MeanOccupancy(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("MeanOccupancy = %v, want 0.5", got)
	}
}

func TestStartingLatency(t *testing.T) {
	// 4 ranks becoming active at t = 0, 10, 20, 30 and staying busy
	// until t = 100 (makespan 100).
	tr := buildTrace(100, [][][2]sim.Time{
		{{0, 100}}, {{10, 100}}, {{20, 100}}, {{30, 100}},
	})
	c := Occupancy(tr)
	cases := []struct {
		x    float64
		want float64
	}{
		{0.25, 0.0},  // 1 worker at t=0
		{0.5, 0.10},  // 2 workers at t=10
		{0.75, 0.20}, // 3 workers at t=20
		{1.0, 0.30},  // all at t=30
	}
	for _, cse := range cases {
		sl, ok := c.StartingLatency(cse.x)
		if !ok {
			t.Fatalf("SL(%v) unreachable", cse.x)
		}
		if math.Abs(sl-cse.want) > 1e-12 {
			t.Fatalf("SL(%v) = %v, want %v", cse.x, sl, cse.want)
		}
	}
}

func TestEndingLatency(t *testing.T) {
	// Mirror image: ranks go idle at 70, 80, 90, 100.
	tr := buildTrace(100, [][][2]sim.Time{
		{{0, 100}}, {{0, 90}}, {{0, 80}}, {{0, 70}},
	})
	c := Occupancy(tr)
	cases := []struct {
		x    float64
		want float64
	}{
		{1.0, 0.30},  // 4 workers last at t=70
		{0.75, 0.20}, // 3 workers until 80
		{0.5, 0.10},
		{0.25, 0.0}, // 1 worker until the very end
	}
	for _, cse := range cases {
		el, ok := c.EndingLatency(cse.x)
		if !ok {
			t.Fatalf("EL(%v) unreachable", cse.x)
		}
		if math.Abs(el-cse.want) > 1e-12 {
			t.Fatalf("EL(%v) = %v, want %v", cse.x, el, cse.want)
		}
	}
}

func TestUnreachableOccupancy(t *testing.T) {
	// Only 1 of 4 ranks ever works: SL/EL above 25% must report
	// unreachable — the situation of the paper's Figure 5 (43% max).
	tr := buildTrace(100, [][][2]sim.Time{{{0, 100}}, {}, {}, {}})
	c := Occupancy(tr)
	if _, ok := c.StartingLatency(0.5); ok {
		t.Fatal("SL(50%) reported reachable")
	}
	if _, ok := c.EndingLatency(0.5); ok {
		t.Fatal("EL(50%) reported reachable")
	}
	if c.MaxOccupancy() != 0.25 {
		t.Fatalf("MaxOccupancy = %v", c.MaxOccupancy())
	}
}

func TestPaperExampleSL(t *testing.T) {
	// Paper §III: "an execution where the first time 10% of the
	// processes have work happens 5% of the execution time after
	// beginning has SL(10%) = 5%."
	// 10 ranks; rank 0 active from t=50 (5% of 1000).
	intervals := make([][][2]sim.Time, 10)
	intervals[0] = [][2]sim.Time{{50, 1000}}
	tr := buildTrace(1000, intervals)
	sl, ok := Occupancy(tr).StartingLatency(0.10)
	if !ok || math.Abs(sl-0.05) > 1e-12 {
		t.Fatalf("SL(10%%) = %v ok=%v, want 0.05", sl, ok)
	}
}

func TestLatencyCurveAndSamples(t *testing.T) {
	tr := buildTrace(100, [][][2]sim.Time{
		{{0, 100}}, {{10, 100}}, {{20, 100}}, {{30, 100}},
	})
	c := Occupancy(tr)
	xs := OccupancySamples(4, 1.0)
	if len(xs) != 4 || xs[0] != 0.25 || xs[3] != 1.0 {
		t.Fatalf("samples %v", xs)
	}
	pts := c.LatencyCurve(xs)
	for _, p := range pts {
		if !p.Reached {
			t.Fatalf("point %+v unreachable", p)
		}
		if p.SL < 0 || p.SL > 1 || p.EL < 0 || p.EL > 1 {
			t.Fatalf("latency outside [0,1]: %+v", p)
		}
	}
	if pts[0].SL > pts[3].SL {
		t.Fatal("SL not monotone in occupancy")
	}
	// Capped samples.
	capped := OccupancySamples(10, 0.45)
	if len(capped) != 4 { // 0.1 .. 0.4
		t.Fatalf("capped samples %v", capped)
	}
}

func TestStepsCopy(t *testing.T) {
	tr := buildTrace(10, [][][2]sim.Time{{{1, 9}}})
	c := Occupancy(tr)
	times, counts := c.Steps()
	times[0] = 12345
	counts[0] = 99
	t2, c2 := c.Steps()
	if t2[0] == 12345 || c2[0] == 99 {
		t.Fatal("Steps did not return copies")
	}
}

func TestCorruptTracePanics(t *testing.T) {
	// An idle transition without a preceding active one makes the
	// worker count negative.
	tr := &trace.Trace{
		End:         10,
		Transitions: [][]trace.Transition{{{Time: 2, State: trace.Idle}}},
	}
	defer func() {
		if recover() == nil {
			t.Fatal("corrupt trace did not panic")
		}
	}()
	Occupancy(tr)
}

// Property: SL is non-decreasing and EL non-increasing... EL is also
// non-decreasing in x (harder to keep high occupancy late). Check
// monotonicity of both and that SL(x) <= 1.
func TestPropertySLELMonotone(t *testing.T) {
	f := func(starts []uint8, lens []uint8) bool {
		n := len(starts)
		if n == 0 || n > 32 || len(lens) == 0 {
			return true
		}
		intervals := make([][][2]sim.Time, n)
		var end sim.Time = 1
		for i := range starts {
			s := sim.Time(starts[i])
			l := sim.Duration(lens[i%len(lens)]) + 1
			e := s.Add(l)
			intervals[i] = [][2]sim.Time{{s, e}}
			if e > end {
				end = e
			}
		}
		c := Occupancy(buildTrace(end, intervals))
		var prevSL, prevEL float64
		for _, x := range OccupancySamples(10, 1.0) {
			sl, ok1 := c.StartingLatency(x)
			el, ok2 := c.EndingLatency(x)
			if !ok1 || !ok2 {
				break
			}
			if sl < prevSL-1e-12 || el < prevEL-1e-12 {
				return false
			}
			if sl < 0 || sl > 1 || el < 0 || el > 1 {
				return false
			}
			prevSL, prevEL = sl, el
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
