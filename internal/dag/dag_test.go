package dag

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"distws/internal/sim"
)

func defaultParams(seed uint64) Params {
	return Params{
		Seed: seed, Layers: 20, WidthMean: 16, EdgesPerTask: 2,
		LocalityWindow: 2, CostMean: 10 * sim.Microsecond, DataMean: 4096,
	}
}

func TestValidateParams(t *testing.T) {
	good := defaultParams(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Layers: 0, WidthMean: 1, LocalityWindow: 1, CostMean: 1},
		{Layers: 1, WidthMean: 0, LocalityWindow: 1, CostMean: 1},
		{Layers: 1, WidthMean: 1, LocalityWindow: 0, CostMean: 1},
		{Layers: 1, WidthMean: 1, LocalityWindow: 1, CostMean: 0},
		{Layers: 1, WidthMean: 1, LocalityWindow: 1, CostMean: 1, EdgesPerTask: -1},
		{Layers: 1, WidthMean: 1, LocalityWindow: 1, CostMean: 1, DataMean: -1},
		// 2*WidthMean-1 used to wrap into Intn and Generate never returned.
		{Layers: 1, WidthMean: 1 << 62, LocalityWindow: 1, CostMean: 1},
		{Layers: 1 << 62, WidthMean: 1, LocalityWindow: 1, CostMean: 1},
		{Layers: 1 << 13, WidthMean: 1 << 11, LocalityWindow: 1, CostMean: 1}, // one layer over the task cap
		// TotalCost used to wrap (a 600-task graph summed to 681ns).
		{Layers: 1, WidthMean: 1, LocalityWindow: 1, CostMean: 1 << 62},
		{Layers: 1, WidthMean: 1, LocalityWindow: 1, CostMean: maxCostMean + 1},
		{Layers: 1, WidthMean: 1, LocalityWindow: 1, CostMean: 1, DataMean: maxDataMean + 1},
		// NaN passes every ordered comparison against it.
		{Layers: 1, WidthMean: 1, LocalityWindow: 1, CostMean: 1, EdgesPerTask: math.NaN()},
		{Layers: 1, WidthMean: 1, LocalityWindow: 1, CostMean: 1, EdgesPerTask: math.Inf(1)},
		{Layers: 1, WidthMean: 1, LocalityWindow: 1, CostMean: 1, EdgesPerTask: math.Inf(-1)},
		{Layers: 1, WidthMean: 1, LocalityWindow: 1, CostMean: 1, EdgesPerTask: maxEdgesPerTask + 1},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("bad params %d accepted", i)
		}
		if _, err := Generate(p); err == nil {
			t.Fatalf("bad params %d generated a graph", i)
		}
	}
	// The bounds themselves are accepted.
	edge := Params{
		Layers: 1 << 12, WidthMean: 1 << 11, EdgesPerTask: maxEdgesPerTask,
		LocalityWindow: math.MaxInt, CostMean: maxCostMean, DataMean: maxDataMean,
	}
	if err := edge.Validate(); err != nil {
		t.Fatalf("params at the bounds rejected: %v", err)
	}
}

// FuzzGenerate: whatever Validate accepts, Generate turns into a
// structurally valid graph within the task cap whose totals did not
// wrap. The magnitudes (costs, bytes, edge counts, window) are fuzzed
// over their whole accepted range; the shape is fuzzed freely too, but
// only shapes of at most fuzzMaxTasks tasks are generated, to keep an
// input's memory in kilobytes.
func FuzzGenerate(f *testing.F) {
	const fuzzMaxTasks = 1 << 8
	f.Add(uint64(1), 12, 8, 2.0, 2, int64(20_000), 4096)
	f.Add(uint64(2), 1, 1, 0.0, 1, int64(1), 0)
	f.Add(uint64(3), 4, 16, float64(maxEdgesPerTask), math.MaxInt, int64(maxCostMean), maxDataMean)
	f.Add(uint64(4), 1, 1<<62, 1.0, 1, int64(1)<<62, 1<<40)
	f.Add(uint64(5), 3, 3, math.NaN(), 1, int64(5), 5)
	f.Fuzz(func(t *testing.T, seed uint64, layers, width int, edges float64, window int, cost int64, data int) {
		p := Params{
			Seed: seed, Layers: layers, WidthMean: width, EdgesPerTask: edges,
			LocalityWindow: window, CostMean: sim.Duration(cost), DataMean: data,
		}
		if p.Validate() != nil {
			return
		}
		limit := p.Layers * 2 * p.WidthMean // no overflow: Validate bounds it by MaxTasks
		if limit > fuzzMaxTasks {
			t.Skip("accepted, but too large to generate per input")
		}
		g, err := Generate(p)
		if err != nil {
			t.Fatalf("Validate accepted %+v, Generate refused: %v", p, err)
		}
		if g.Len() < p.Layers || g.Len() > limit {
			t.Fatalf("%d tasks from %d layers of width mean %d", g.Len(), p.Layers, p.WidthMean)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(g.Roots) == 0 {
			t.Fatal("no roots")
		}
		var sumCost sim.Duration
		var sumBytes int64
		for i := range g.Tasks {
			task := &g.Tasks[i]
			if task.Cost < 1 || sumCost+task.Cost < sumCost {
				t.Fatalf("task %d costs %d after %d: a cost is non-positive or the sum wrapped", i, task.Cost, sumCost)
			}
			sumCost += task.Cost
			for _, b := range task.PredData {
				if b < 0 || sumBytes+int64(b) < sumBytes {
					t.Fatalf("task %d: edge of %d bytes after %d", i, b, sumBytes)
				}
				sumBytes += int64(b)
			}
		}
		if g.TotalCost != sumCost || g.TotalBytes != sumBytes {
			t.Fatalf("totals %d ns / %d B, tasks sum to %d / %d", g.TotalCost, g.TotalBytes, sumCost, sumBytes)
		}
		if cp := g.CriticalPath(); cp < 1 || cp > g.TotalCost {
			t.Fatalf("critical path %d outside (0, total cost %d]", cp, g.TotalCost)
		}
	})
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(defaultParams(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(defaultParams(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed graphs differ")
	}
	c, err := Generate(defaultParams(8))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Tasks, c.Tasks) {
		t.Fatal("different seeds gave identical graphs")
	}
}

func TestGraphStructure(t *testing.T) {
	g, err := Generate(defaultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Len() < 20 {
		t.Fatalf("only %d tasks", g.Len())
	}
	if len(g.Roots) == 0 {
		t.Fatal("no roots")
	}
	// First-layer tasks have no preds; all roots are layer 0...
	// (later-layer tasks always draw at least one pred).
	for _, r := range g.Roots {
		if g.Tasks[r].Layer != 0 {
			t.Fatalf("root %d on layer %d", r, g.Tasks[r].Layer)
		}
	}
	// Locality window respected.
	for i := range g.Tasks {
		for _, pred := range g.Tasks[i].Preds {
			if d := g.Tasks[i].Layer - g.Tasks[pred].Layer; d < 1 || d > int32(defaultParams(3).LocalityWindow) {
				t.Fatalf("edge %d->%d spans %d layers", pred, i, d)
			}
		}
	}
}

func TestTotals(t *testing.T) {
	g, err := Generate(defaultParams(5))
	if err != nil {
		t.Fatal(err)
	}
	var cost sim.Duration
	var bytes int64
	for i := range g.Tasks {
		cost += g.Tasks[i].Cost
		for _, b := range g.Tasks[i].PredData {
			bytes += int64(b)
		}
	}
	if cost != g.TotalCost {
		t.Fatalf("TotalCost %v, recomputed %v", g.TotalCost, cost)
	}
	if bytes != g.TotalBytes {
		t.Fatalf("TotalBytes %d, recomputed %d", g.TotalBytes, bytes)
	}
}

func TestCriticalPath(t *testing.T) {
	g, err := Generate(defaultParams(9))
	if err != nil {
		t.Fatal(err)
	}
	cp := g.CriticalPath()
	if cp <= 0 || cp > g.TotalCost {
		t.Fatalf("critical path %v vs total %v", cp, g.TotalCost)
	}
	// The critical path is at least the heaviest single task and at
	// least the heaviest chain layer count * min cost.
	var maxTask sim.Duration
	for i := range g.Tasks {
		if g.Tasks[i].Cost > maxTask {
			maxTask = g.Tasks[i].Cost
		}
	}
	if cp < maxTask {
		t.Fatalf("critical path %v below heaviest task %v", cp, maxTask)
	}
}

func TestSingleLayerGraph(t *testing.T) {
	p := Params{Seed: 1, Layers: 1, WidthMean: 8, EdgesPerTask: 2, LocalityWindow: 1, CostMean: 1000}
	g, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Roots) != g.Len() {
		t.Fatal("single-layer graph should be all roots")
	}
	if g.TotalBytes != 0 {
		t.Fatal("edges in a single-layer graph")
	}
}

// Property: generated graphs always validate, IDs are topological, and
// the critical path is monotone under the partial order.
func TestPropertyGeneratedGraphsValid(t *testing.T) {
	f := func(seed uint64, layersRaw, widthRaw uint8) bool {
		p := Params{
			Seed:   seed,
			Layers: int(layersRaw%12) + 1, WidthMean: int(widthRaw%8) + 1,
			EdgesPerTask: 1.5, LocalityWindow: 2,
			CostMean: 5 * sim.Microsecond, DataMean: 256,
		}
		g, err := Generate(p)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		return g.CriticalPath() <= g.TotalCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
