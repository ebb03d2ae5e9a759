package core

import (
	"distws/internal/sim"
	"distws/internal/term"
	"distws/internal/trace"
	"distws/internal/uts"
)

// workload is what the ranks work on, and the five things that differ
// between a closed UTS tree (treeWork), served UTS jobs (serveWork,
// engine_serve.go) and a task graph (graphWork, engine_dag.go) — DESIGN.md
// §5's table. Everything else — stealing, search, backoff, timeouts,
// termination, delivery, crashes and tracing — is the engine's, and the
// same for all three.
type workload interface {
	// detector builds the termination detector the run ends by.
	detector(c Config) term.Detector
	// seed places the work that exists at t = 0, starts the ranks holding
	// it, idles the rest (idleFrom) and schedules what arrives later.
	seed(e *engine)
	// execute takes rank r's quantum off its stack and returns its
	// compute time (a straggler scales it) and a stall (it does not).
	execute(e *engine, r int) (compute, stall sim.Duration)
	// settle runs at the end of rank r's quantum, before the poll.
	settle(e *engine, r int)
	// lose is what destroyed work means: nodes a fault took off a stack
	// or out of a message and, when crashed >= 0, what that rank's
	// cancelled quantum had in hand. It returns how many nodes the
	// in-hand work held, for the loss ledger.
	lose(e *engine, crashed int, nodes []uts.Node) uint64
	// report fills the workload's part of the result.
	report(e *engine, res *Result)
}

// newWorkload builds what cfg's ranks work on: cfg.Graph's tasks when
// set, cfg.Serve's jobs when set, cfg.Tree otherwise.
func newWorkload(cfg *Config) (workload, error) {
	switch {
	case cfg.Graph != nil:
		return newGraphWork(cfg.Graph), nil
	case cfg.Serve != nil:
		return compileServe(cfg)
	}
	return treeWork{}, nil
}

// treeWork is the closed UTS tree: rank 0 holds the root at t = 0, and
// a destroyed node means nothing beyond its count.
type treeWork struct{}

func (treeWork) detector(c Config) term.Detector { return c.Detector(c.Ranks) }

func (treeWork) seed(e *engine) {
	w := e.work(0)
	w.stack.Push(e.cfg.Tree.Root())
	w.generated++
	e.rec.Mark(0, 0, trace.Active)
	e.startQuantum(0)
	e.idleFrom(1)
}

func (treeWork) execute(e *engine, r int) (sim.Duration, sim.Duration) { return e.expand(r, nil), 0 }
func (treeWork) settle(*engine, int)                                   {}
func (treeWork) lose(*engine, int, []uts.Node) uint64                  { return 0 }
func (treeWork) report(*engine, *Result)                               {}

// expand is a UTS quantum, closed (jobs nil) or served: up to
// PollInterval units of expansion from rank r's stack, as compute time.
// Child generation dominates (one hash chain per child), so a leaf costs
// one unit and an internal node one per child; it is resumable, so a
// quantum ends after PollInterval units even inside a high-fanout node.
// Served jobs differ only in the params a node expands under and the
// live count its expansion books (serveWork.consume).
//
// Nodes are not copied through the loop. A child is generated into the
// stack slot it will occupy (ChildInto on PushSlot), and a popped node
// is read where it lies (PopSlot): nothing pushes between the pop and
// gen.Reset, which copies the state the children hash. A node's last
// child would be pushed and popped at once when the quantum goes on, so
// it is generated into staged and expanded from there instead; the
// stack ends each iteration as the push and pop would have left it.
func (e *engine) expand(r int, jobs *serveWork) sim.Duration {
	w := e.ranks[r].w
	start, budget := w.units, uint64(e.cfg.PollInterval)
	var staged uts.Node
	for w.units-start < budget {
		var node *uts.Node
		if w.expNext < w.expTotal {
			i := w.expNext
			w.expNext++
			w.units++
			w.generated++
			if w.expNext < w.expTotal || w.units-start >= budget {
				w.gen.ChildInto(w.stack.PushSlot(), i)
				continue
			}
			w.gen.ChildInto(&staged, i)
			node = &staged
		} else if node = w.stack.PopSlot(); node == nil {
			break
		}
		w.nodes++
		if node.Height > w.maxDepth {
			w.maxDepth = node.Height
		}
		tree := &e.cfg.Tree
		if jobs != nil {
			// A rank pops long runs of one job's nodes, so the schedule
			// is consulted only when the job changes.
			if w.job == nil || w.job.ID != node.Job {
				w.job = &jobs.sched.Jobs[node.Job]
			}
			tree = &w.job.Tree
		}
		nchild := w.gen.Reset(tree, node)
		if jobs != nil {
			jobs.consume(e, node.Job, int64(nchild)-1)
		}
		if nchild == 0 {
			w.leaves++
			w.units++
			continue
		}
		w.expNext = 0
		w.expTotal = nchild
	}
	return sim.Duration(w.units-start) * e.cfg.NodeCost
}
