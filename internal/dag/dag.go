// Package dag generates random task graphs for scheduling experiments.
//
// The paper's §VII names work stealing with data dependencies as the
// natural next study, where "stealing a task can trigger massive
// communications", and points at random DAG generation (Cordeiro et
// al., SIMUTools 2010) as the workload source. This package implements
// a layer-by-layer random DAG generator in that spirit: tasks are
// arranged in layers, every task (except in the first layer) draws
// predecessors from the previous layers, task costs are heavy-tailed,
// and every edge carries a data size that must travel if producer and
// consumer run on different ranks.
//
// Generation is deterministic: the same parameters always produce the
// same graph.
package dag

import (
	"fmt"
	"math"

	"distws/internal/rng"
	"distws/internal/sim"
)

// Params describes a random layered DAG.
type Params struct {
	Seed uint64
	// Layers and WidthMean control the shape: each layer holds a
	// Poisson-ish number of tasks around WidthMean (at least 1).
	Layers    int
	WidthMean int
	// EdgesPerTask is the mean number of predecessors drawn for each
	// non-root task (at least 1 to keep the graph connected).
	EdgesPerTask float64
	// LocalityWindow limits how far back (in layers) predecessors can
	// be; 1 means only the previous layer.
	LocalityWindow int
	// CostMean is the mean task execution cost. Costs are drawn from a
	// heavy-tailed (log-normal-ish) distribution around it.
	CostMean sim.Duration
	// DataMean is the mean bytes carried by one edge.
	DataMean int
}

// Bounds on what Validate accepts, chosen so that Generate's loops end
// and its sums stay in range whatever the draws: a layer holds fewer
// than 2·WidthMean tasks, a task draws fewer than 2·EdgesPerTask
// predecessors, a cost is at most 32·CostMean and an edge carries fewer
// than 2·DataMean bytes.
const (
	// MaxTasks caps Layers × 2·WidthMean; it also keeps IDs in int32.
	MaxTasks        = 1 << 24
	maxEdgesPerTask = 1 << 10
	maxCostMean     = math.MaxInt64 / 32 / MaxTasks                        // TotalCost fits sim.Duration
	maxDataMean     = math.MaxInt64 / 2 / (2 * maxEdgesPerTask * MaxTasks) // TotalBytes fits int64
)

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.Layers < 1 {
		return fmt.Errorf("dag: %d layers", p.Layers)
	}
	if p.WidthMean < 1 || p.WidthMean > MaxTasks/2/p.Layers { // the product could wrap
		return fmt.Errorf("dag: width mean %d (%d layers, at most %d tasks)", p.WidthMean, p.Layers, MaxTasks)
	}
	// Written so that NaN fails it.
	if !(p.EdgesPerTask >= 0 && p.EdgesPerTask <= maxEdgesPerTask) {
		return fmt.Errorf("dag: edges per task %v outside [0, %d]", p.EdgesPerTask, maxEdgesPerTask)
	}
	if p.LocalityWindow < 1 {
		return fmt.Errorf("dag: locality window %d", p.LocalityWindow)
	}
	if p.CostMean <= 0 || p.CostMean > maxCostMean {
		return fmt.Errorf("dag: cost mean %v outside (0, %v]", p.CostMean, sim.Duration(maxCostMean))
	}
	if p.DataMean < 0 || p.DataMean > maxDataMean {
		return fmt.Errorf("dag: data mean %d outside [0, %d]", p.DataMean, maxDataMean)
	}
	return nil
}

// Task is one node of the graph.
type Task struct {
	ID    int32
	Layer int32
	Cost  sim.Duration
	// Preds and Succs are task IDs; PredData[i] is the bytes flowing
	// over the edge from Preds[i].
	Preds    []int32
	PredData []int
	Succs    []int32
}

// Graph is a generated DAG. Tasks are stored in topological order
// (layer by layer), so Tasks[i].Preds all have IDs < i.
type Graph struct {
	Params Params
	Tasks  []Task
	// Roots are the tasks with no predecessors.
	Roots []int32
	// TotalCost is the sum of task costs (sequential compute time).
	TotalCost sim.Duration
	// TotalBytes is the sum of edge data sizes.
	TotalBytes int64
}

// Generate builds the graph.
func Generate(p Params) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(p.Seed)
	g := &Graph{Params: p}

	// Layer widths: 1 + geometric-ish variation around WidthMean.
	layerStart := make([]int32, 0, p.Layers+1)
	var id int32
	for l := 0; l < p.Layers; l++ {
		layerStart = append(layerStart, id)
		width := 1 + r.Intn(2*p.WidthMean-1) // mean ~= WidthMean
		for k := 0; k < width; k++ {
			cost := heavyTailedCost(r, p.CostMean)
			g.Tasks = append(g.Tasks, Task{ID: id, Layer: int32(l), Cost: cost})
			g.TotalCost += cost
			id++
		}
	}
	layerStart = append(layerStart, id)

	// Edges: each non-first-layer task draws predecessors from the
	// locality window.
	for l := 1; l < p.Layers; l++ {
		loLayer := l - p.LocalityWindow
		if loLayer < 0 {
			loLayer = 0
		}
		lo, hi := layerStart[loLayer], layerStart[l]
		candidates := int(hi - lo)
		for t := layerStart[l]; t < layerStart[l+1]; t++ {
			task := &g.Tasks[t]
			npred := 1
			if p.EdgesPerTask > 1 {
				npred = 1 + r.Intn(int(2*p.EdgesPerTask-1))
			}
			if npred > candidates {
				npred = candidates
			}
			seen := map[int32]bool{}
			for len(task.Preds) < npred {
				pred := lo + int32(r.Intn(candidates))
				if seen[pred] {
					continue
				}
				seen[pred] = true
				data := edgeBytes(r, p.DataMean)
				task.Preds = append(task.Preds, pred)
				task.PredData = append(task.PredData, data)
				g.TotalBytes += int64(data)
				g.Tasks[pred].Succs = append(g.Tasks[pred].Succs, task.ID)
			}
		}
	}

	for i := range g.Tasks {
		if len(g.Tasks[i].Preds) == 0 {
			g.Roots = append(g.Roots, g.Tasks[i].ID)
		}
	}
	return g, nil
}

// heavyTailedCost draws exp(N(0, 0.75)) * mean, clamped to [mean/16,
// 32*mean]: most tasks near the mean, a heavy right tail.
func heavyTailedCost(r *rng.Xoshiro256, mean sim.Duration) sim.Duration {
	f := math.Exp(0.75 * r.NormFloat64())
	c := sim.Duration(float64(mean) * f)
	if c < mean/16 {
		c = mean / 16
	}
	if c > 32*mean {
		c = 32 * mean
	}
	if c < 1 {
		c = 1
	}
	return c
}

// edgeBytes draws an edge payload around the mean.
func edgeBytes(r *rng.Xoshiro256, mean int) int {
	if mean == 0 {
		return 0
	}
	return 1 + r.Intn(2*mean-1)
}

// Len returns the task count.
func (g *Graph) Len() int { return len(g.Tasks) }

// Validate checks structural invariants: topological ID order,
// symmetric adjacency, in-window predecessors.
func (g *Graph) Validate() error {
	for i := range g.Tasks {
		t := &g.Tasks[i]
		if t.ID != int32(i) {
			return fmt.Errorf("dag: task %d has ID %d", i, t.ID)
		}
		if len(t.Preds) != len(t.PredData) {
			return fmt.Errorf("dag: task %d pred/data length mismatch", i)
		}
		for _, pred := range t.Preds {
			if pred >= t.ID {
				return fmt.Errorf("dag: task %d depends on later task %d", i, pred)
			}
			found := false
			for _, s := range g.Tasks[pred].Succs {
				if s == t.ID {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("dag: edge %d->%d not mirrored", pred, i)
			}
		}
	}
	return nil
}

// CriticalPath returns the longest compute-cost path through the graph:
// the makespan lower bound with infinite ranks and free communication.
func (g *Graph) CriticalPath() sim.Duration {
	finish := make([]sim.Duration, len(g.Tasks))
	var cp sim.Duration
	for i := range g.Tasks {
		t := &g.Tasks[i]
		var ready sim.Duration
		for _, pred := range t.Preds {
			if finish[pred] > ready {
				ready = finish[pred]
			}
		}
		finish[i] = ready + t.Cost
		if finish[i] > cp {
			cp = finish[i]
		}
	}
	return cp
}
