package core

// Task graphs on the engine — the study the paper's §VII proposes: "in
// the case of data dependencies, stealing a task can trigger massive
// communications and thus is more sensible to bandwidth". A graph run
// is an engine run whose work items are dag.Graph tasks: a ready task
// rides the work stack, the loot buffers and the steal handlers as a
// uts.Node carrying its id, a quantum executes one task, and only what
// happens at the two ends of that quantum is specific to graphs
// (execute, settle).
//
// A task becomes ready when its last predecessor completes, at the rank
// that executed that predecessor. Before executing a task a rank
// fetches every other predecessor's output from the rank that produced
// it, paying a request plus the data's latency (fetches overlap, so the
// stall is their maximum): a stolen task usually fetches from far away,
// the locality cost the paper anticipates. Dependence counters are
// shared scheduler state (zero-latency bookkeeping), which is why
// Validate keeps graph runs unsharded. Under a fault plan a task's
// output dies with the rank that produced it (DESIGN.md §11).

import (
	"encoding/binary"
	"errors"
	"fmt"

	"distws/internal/dag"
	"distws/internal/sim"
	"distws/internal/term"
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
	// LostTasks counts the ready tasks a fault destroyed (Result.LostNodes
	// of a graph run). Their descendants never became ready.
	LostTasks uint64
}

// graphWork is the task-graph workload. The per-rank entry lives here
// and not in rank, whose layout is a cache-line budget tree runs pay
// for.
type graphWork struct {
	g *dag.Graph
	// remaining[t] is the number of incomplete predecessors of task t;
	// executor[t] the rank that ran it (-1 until it completes, lostTask
	// once a fault destroyed it).
	remaining []int32
	executor  []int32
	// running[r] is the task rank r's pending quantum executes, -1 for
	// none.
	running []int32

	stats GraphStats
}

const lostTask = -2

// newGraphWork validates g and builds its workload.
func newGraphWork(g *dag.Graph) (workload, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	w := &graphWork{
		g:         g,
		remaining: make([]int32, g.Len()),
		executor:  make([]int32, g.Len()),
		stats:     GraphStats{CriticalPath: g.CriticalPath()},
	}
	for t := range g.Tasks {
		w.remaining[t] = int32(len(g.Tasks[t].Preds))
		w.executor[t] = -1
	}
	return w, nil
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
// the steal granularity in tasks. A fault plan composes: the tasks it
// destroys are booked lost and their descendants never run. The
// exclusions of Config.Validate refuse Shards > 1 and Serve.
func RunGraph(cfg Config, g *dag.Graph) (*Result, *GraphStats, error) {
	if g == nil || g.Len() == 0 {
		return nil, nil, errors.New("core: empty graph")
	}
	res, w, err := run(cfg, g)
	if err != nil {
		return nil, nil, err
	}
	return res, &w.(*graphWork).stats, nil
}

func (*graphWork) detector(c Config) term.Detector { return c.Detector(c.Ranks) }

// seed deals the roots round-robin at t = 0, as a runtime's initial
// task placement would, and starts the ranks that got one.
func (w *graphWork) seed(e *engine) {
	w.running = make([]int32, e.cfg.Ranks)
	for r := range w.running {
		w.running[r] = -1
	}
	for i, root := range w.g.Roots {
		r := i % e.cfg.Ranks
		wk := e.work(r)
		wk.stack.Push(taskNode(&w.g.Tasks[root]))
		wk.generated++
	}
	seeded := min(len(w.g.Roots), e.cfg.Ranks)
	for r := 0; r < seeded; r++ {
		e.rec.Record(r, 0, trace.Active)
		e.startQuantum(r)
	}
	e.idleFrom(seeded)
}

// execute is a graph quantum: pop the hottest ready task, stall for the
// slowest fetch of a predecessor's output produced elsewhere, then
// compute. The quantum ends when the task completes. A task whose
// predecessor's output died with its rank is lost instead, and the next
// one is tried; a rank left with none ends an empty quantum.
func (w *graphWork) execute(e *engine, r int) (compute, stall sim.Duration) {
	stack := &e.ranks[r].w.stack
	node, ok := stack.Pop()
	for ok && e.inj != nil && w.orphaned(e, &w.g.Tasks[nodeTask(&node)]) {
		e.destroy(r, -1, []uts.Node{node})
		node, ok = stack.Pop()
	}
	if !ok {
		return 0, 0
	}
	task := &w.g.Tasks[nodeTask(&node)]
	w.running[r] = task.ID
	job := e.net.Job()
	for i, pred := range task.Preds {
		from := int(w.executor[pred]) // set: a task is ready after its last predecessor
		if from == r {
			continue
		}
		bytes := task.PredData[i]
		fetch := e.cfg.Latency.Latency(job, r, from, 0) + // request
			e.cfg.Latency.Latency(job, from, r, bytes) // data
		stall = max(stall, fetch)
		w.stats.BytesFetched += int64(bytes)
	}
	w.stats.FetchTime += stall
	return task.Cost, stall
}

// orphaned reports whether a predecessor of task ran on a rank that has
// crashed since, taking its output along.
func (w *graphWork) orphaned(e *engine, task *dag.Task) bool {
	for _, pred := range task.Preds {
		if e.ranks[w.executor[pred]].state == rsCrashed {
			return true
		}
	}
	return false
}

// settle completes the task rank r's quantum executed, before the rank
// polls: the successors whose last dependence this was become ready on
// r's own stack. Not earlier — a successor may not start before its
// slowest predecessor finishes, and a thief could carry it off in
// between.
func (w *graphWork) settle(e *engine, r int) {
	t := w.running[r]
	if t < 0 {
		return
	}
	w.running[r] = -1
	wk, task := e.ranks[r].w, &w.g.Tasks[t]
	w.executor[t] = int32(r)
	wk.nodes++
	wk.maxDepth = max(wk.maxDepth, task.Layer)
	for _, succ := range task.Succs {
		if w.remaining[succ]--; w.remaining[succ] == 0 {
			wk.stack.Push(taskNode(&w.g.Tasks[succ]))
			wk.generated++
		}
	}
}

// lose books the destroyed tasks, and a crashed rank's running one.
func (w *graphWork) lose(e *engine, crashed int, nodes []uts.Node) uint64 {
	for i := range nodes {
		w.executor[nodeTask(&nodes[i])] = lostTask
	}
	w.stats.LostTasks += uint64(len(nodes))
	if crashed < 0 || w.running[crashed] < 0 {
		return 0
	}
	w.executor[w.running[crashed]], w.running[crashed] = lostTask, -1
	w.stats.LostTasks++
	return 1
}

func (w *graphWork) report(e *engine, res *Result) {
	res.SequentialTime = w.g.TotalCost
	// A steal moves whole chunks.
	w.stats.TasksStolen = res.ChunksTransferred * uint64(e.cfg.ChunkSize)
}
