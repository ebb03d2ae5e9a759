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

// treeWork is the closed UTS tree: rank 0 holds the root at t = 0, and
// a destroyed node means nothing beyond its count.
type treeWork struct{}

func (treeWork) detector(c Config) term.Detector { return c.Detector(c.Ranks) }

func (treeWork) seed(e *engine) {
	e.ranks[0].stack.Push(e.cfg.Tree.Root())
	e.ranks[0].generated++
	e.rec.Record(0, 0, trace.Active)
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
func (e *engine) expand(r int, jobs *serveWork) sim.Duration {
	rk := &e.ranks[r]
	start := rk.units
	for rk.units-start < uint64(e.cfg.PollInterval) {
		if rk.expNext < rk.expTotal {
			rk.stack.Push(rk.gen.Child(rk.expNext))
			rk.expNext++
			rk.units++
			rk.generated++
			continue
		}
		node, ok := rk.stack.Pop()
		if !ok {
			break
		}
		rk.nodes++
		if node.Height > rk.maxDepth {
			rk.maxDepth = node.Height
		}
		tree := &e.cfg.Tree
		if jobs != nil {
			// A rank pops long runs of one job's nodes, so the schedule
			// is consulted only when the job changes.
			if rk.job == nil || rk.job.ID != node.Job {
				rk.job = &jobs.sched.Jobs[node.Job]
			}
			tree = &rk.job.Tree
		}
		nchild := rk.gen.Reset(tree, &node)
		if jobs != nil {
			jobs.consume(e, node.Job, int64(nchild)-1)
		}
		if nchild == 0 {
			rk.leaves++
			rk.units++
			continue
		}
		rk.expNext = 0
		rk.expTotal = nchild
	}
	return sim.Duration(rk.units-start) * e.cfg.NodeCost
}
