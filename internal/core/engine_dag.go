package core

// Task graphs on the engine — the study the paper's §VII proposes: "in
// the case of data dependencies, stealing a task can trigger massive
// communications and thus is more sensible to bandwidth". A graph run
// is an engine run whose work items are dag.Graph tasks: a ready task
// rides the work stack, the loot buffers and the steal handlers as a
// uts.Node carrying its id, a quantum executes one task, and only what
// happens at the two ends of that quantum is specific to graphs
// (startTask, completeTask).
//
// A task becomes ready when its last predecessor completes, at the rank
// that executed that predecessor. Before executing a task a rank
// fetches every other predecessor's output from the rank that produced
// it, paying a request plus the data's latency (fetches overlap, so the
// stall is their maximum): a stolen task usually fetches from far away,
// the locality cost the paper anticipates. Dependence counters are
// shared scheduler state (zero-latency bookkeeping), which is what
// RunGraph's exclusions follow from.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"distws/internal/dag"
	"distws/internal/sim"
	"distws/internal/trace"
	"distws/internal/uts"
)

// GraphStats is what a graph run reports beyond the engine's Result,
// where Nodes counts the tasks executed and SequentialTime is the
// graph's total cost.
type GraphStats struct {
	// CriticalPath is the graph's longest compute-cost path: the
	// makespan lower bound with infinite ranks and free communication.
	CriticalPath sim.Duration
	// BytesFetched is the total predecessor data moved between ranks.
	BytesFetched int64
	// FetchTime is the accumulated time ranks spent stalled on fetches.
	FetchTime sim.Duration
	// TasksStolen counts the tasks successful steals carried off (one
	// stolen twice counts twice).
	TasksStolen uint64
}

// dagState is the graph workload's run-wide state, nil for tree runs.
// The per-rank entry lives here and not in rank, whose layout is a
// cache-line budget tree runs pay for.
type dagState struct {
	g *dag.Graph
	// remaining[t] is the number of incomplete predecessors of task t;
	// executor[t] the rank that ran it (-1 until it completes).
	remaining []int32
	executor  []int32
	// running[r] is the task rank r's pending quantum executes.
	running []int32

	stats GraphStats
}

func newDagState(g *dag.Graph) *dagState {
	d := &dagState{
		g:         g,
		remaining: make([]int32, g.Len()),
		executor:  make([]int32, g.Len()),
		stats:     GraphStats{CriticalPath: g.CriticalPath()},
	}
	for t := range g.Tasks {
		d.remaining[t] = int32(len(g.Tasks[t].Preds))
		d.executor[t] = -1
	}
	return d
}

// taskNode is the work item of ready task t: the id rides in the state
// bytes, which no hash ever reads in a graph run, and the layer in
// Height.
func taskNode(t *dag.Task) uts.Node {
	n := uts.Node{Height: t.Layer}
	binary.LittleEndian.PutUint32(n.State[0:4], uint32(t.ID))
	return n
}

// nodeTask is taskNode's inverse.
func nodeTask(n *uts.Node) int32 { return int32(binary.LittleEndian.Uint32(n.State[0:4])) }

// RunGraph schedules the task graph g to completion on the engine and
// returns the run's Result and its graph statistics. It is Run with a
// different workload: every Config field means what it means there,
// except that Tree, NodeCost and PollInterval are ignored — a quantum is
// one task, as long as its cost plus its fetch stall — and ChunkSize is
// the steal granularity in tasks. Shards > 1, a non-empty fault plan
// and Serve are rejected.
func RunGraph(cfg Config, g *dag.Graph) (*Result, *GraphStats, error) {
	switch {
	case g == nil || g.Len() == 0:
		return nil, nil, errors.New("core: empty graph")
	case cfg.Shards > 1:
		return nil, nil, errors.New("core: a graph run cannot be sharded (dependence counters are shared state)")
	case cfg.Faults != nil && !cfg.Faults.Empty():
		return nil, nil, errors.New("core: a graph run is incompatible with fault plans (a lost task strands its successors)")
	case cfg.Serve != nil:
		return nil, nil, errors.New("core: a graph run is incompatible with serving mode (job accounting counts tree nodes)")
	}
	if err := g.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	d := newDagState(g)
	res, err := run(cfg, d)
	if err != nil {
		return nil, nil, err
	}
	// A steal moves whole chunks.
	d.stats.TasksStolen = res.ChunksTransferred * uint64(cfg.withDefaults().ChunkSize)
	return res, &d.stats, nil
}

// seedGraph deals the roots round-robin at t = 0, as a runtime's
// initial task placement would, and starts the ranks that got one. It
// returns the first rank that got none.
func (e *engine) seedGraph() int {
	g := e.dag.g
	e.dag.running = make([]int32, e.cfg.Ranks)
	for i, root := range g.Roots {
		r := i % e.cfg.Ranks
		e.ranks[r].stack.Push(taskNode(&g.Tasks[root]))
		e.ranks[r].generated++
	}
	seeded := min(len(g.Roots), e.cfg.Ranks)
	for r := 0; r < seeded; r++ {
		e.rec.Record(r, 0, trace.Active)
		e.startQuantum(r)
	}
	return seeded
}

// startTask is a graph run's quantum: pop the hottest ready task, stall
// for the slowest fetch of a predecessor's output produced elsewhere,
// then compute. The quantum ends when the task completes.
func (e *engine) startTask(r int) {
	d, rk := e.dag, &e.ranks[r]
	node, _ := rk.stack.Pop() // a quantum starts only on a non-empty stack
	d.running[r] = nodeTask(&node)
	task := &d.g.Tasks[d.running[r]]
	job := e.net.Job()
	var fetch sim.Duration
	for i, pred := range task.Preds {
		from := int(d.executor[pred]) // set: a task is ready after its last predecessor
		if from == r {
			continue
		}
		bytes := task.PredData[i]
		stall := e.cfg.Latency.Latency(job, r, from, 0) + // request
			e.cfg.Latency.Latency(job, from, r, bytes) // data
		fetch = max(fetch, stall)
		d.stats.BytesFetched += int64(bytes)
	}
	d.stats.FetchTime += fetch
	dur := fetch + task.Cost + rk.extraDelay
	rk.extraDelay = 0
	rk.quantum = e.kernel.AfterArg(dur, e.quantumEndFn, &e.rankID[r])
}

// completeTask settles the task rank r's quantum executed, before the
// rank polls: the successors whose last dependence this was become
// ready on r's own stack. Not earlier — a successor may not start
// before its slowest predecessor finishes, and a thief could carry it
// off in between.
func (e *engine) completeTask(r int) {
	d, rk := e.dag, &e.ranks[r]
	task := &d.g.Tasks[d.running[r]]
	d.executor[task.ID] = int32(r)
	rk.nodes++
	rk.maxDepth = max(rk.maxDepth, task.Layer)
	for _, succ := range task.Succs {
		if d.remaining[succ]--; d.remaining[succ] == 0 {
			rk.stack.Push(taskNode(&d.g.Tasks[succ]))
			rk.generated++
		}
	}
}
