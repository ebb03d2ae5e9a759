package core

// Served UTS jobs (DESIGN.md §14) replay a schedule compiled before the
// run (internal/serve). Job accounting rides a per-job live-node count:
// the root counts one, expanding an internal node adds (children - 1),
// and a consumed leaf or a node a fault destroyed (staged children
// included) subtracts one, a destroyed one marking the job lost. Nodes
// are tagged (uts.Node.Job) and follow the work wherever steals carry
// it, so a count reaching zero means no node of the job exists, and it
// is booked done, or lost, on a zero-delay event, out of expand's loop.

import (
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/term"
	"distws/internal/trace"
	"distws/internal/uts"
)

// openDetector stands in for the termination detector in serving
// mode: an open system ends by schedule (horizon plus drain), not by
// distributed detection, so it never fires and circulates no tokens.
type openDetector struct{}

func (openDetector) Name() string                              { return "Open" }
func (openDetector) WorkSent(int)                              {}
func (openDetector) WorkReceived(int)                          {}
func (openDetector) WorkLost(int)                              {}
func (openDetector) OnIdle(int) []term.Send                    { return nil }
func (openDetector) OnToken(int, term.Token, bool) []term.Send { return nil }
func (openDetector) RemoveRank(int, bool) []term.Send          { return nil }
func (openDetector) Terminated() bool                          { return false }
func (openDetector) Rounds() int                               { return 0 }

// serveWork is the served-jobs workload.
type serveWork struct {
	sched *serve.Schedule

	// live[j] is job j's node population; zero after injection means
	// the job is resolved. doneAt[j] is its completion instant (-1 while
	// running, and for a lost job), lastDec[j] the instant live[j]
	// reached zero, and lost[j] marks a job a fault took work from.
	live    []int64
	doneAt  []sim.Time
	lastDec []sim.Time
	lost    []bool

	doneJobs, lostJobs int
	horizonAt          sim.Time

	// Resolve machinery: jobs whose count reached zero are parked in
	// pending and booked by a zero-delay event, so the finish never
	// retires a rank in mid-expansion.
	horizonTicked bool
	pending       []uint32
	armed         bool
	resolveFn     func()
	finished      bool
}

// compileServe builds the schedule and serving state for a validated
// config.
func compileServe(cfg *Config) (workload, error) {
	sched, err := serve.Compile(cfg.Serve, cfg.Ranks, cfg.Seed, cfg.NodeCost)
	if err != nil {
		return nil, err
	}
	n := len(sched.Jobs)
	w := &serveWork{
		sched:     sched,
		live:      make([]int64, n),
		doneAt:    make([]sim.Time, n),
		lastDec:   make([]sim.Time, n),
		lost:      make([]bool, n),
		horizonAt: sim.Time(0).Add(sched.Spec.Horizon),
	}
	for i := range w.doneAt {
		w.doneAt[i], w.lastDec[i] = -1, -1
	}
	return w, nil
}

func (*serveWork) detector(Config) term.Detector { return openDetector{} }

// seed starts every rank idle and schedules the compiled arrivals and
// the horizon tick.
func (w *serveWork) seed(e *engine) {
	e.idleFrom(0)
	w.resolveFn = func() { w.resolve(e) }
	for i := range w.sched.Jobs {
		idx := i
		e.kernel.At(w.sched.Jobs[i].At, func() { w.arrive(e, idx) })
	}
	e.kernel.At(w.horizonAt, func() { w.horizon(e) })
}

func (w *serveWork) execute(e *engine, r int) (sim.Duration, sim.Duration) { return e.expand(r, w), 0 }

func (*serveWork) settle(*engine, int) {}

// lose takes destroyed nodes, and the children a crashed rank had
// staged, away from their jobs.
func (w *serveWork) lose(e *engine, crashed int, nodes []uts.Node) uint64 {
	if crashed >= 0 {
		if wk := e.ranks[crashed].w; wk != nil && wk.expNext < wk.expTotal {
			w.drop(e, wk.job.ID, int64(wk.expTotal-wk.expNext))
		}
	}
	for i := range nodes {
		w.drop(e, nodes[i].Job, 1)
	}
	return 0
}

func (w *serveWork) report(e *engine, res *Result) { res.Serve = w.sched.Stats(w.doneAt, e.detectedAt) }

// arrive replays one compiled arrival: record the arrival and its
// admission verdict, and inject the job's root at the placement rank.
func (w *serveWork) arrive(e *engine, idx int) {
	j := &w.sched.Jobs[idx]
	now := e.kernel.Now()
	root, tenant := int(j.Root), int(j.Tenant)
	e.ev.Record(root, now, trace.EvJobArrive, tenant, int64(j.ID))
	if !j.Admitted {
		e.ev.Record(root, now, trace.EvJobReject, tenant, int64(j.ID))
		return
	}
	e.ev.Record(root, now, trace.EvJobAdmit, tenant, int64(j.ID))
	w.live[idx]++
	e.injectNode(root, j.Node)
}

// consume books a node expansion against its job: d is (children - 1)
// for an internal node and -1 for a leaf. Called from expand's loop.
func (w *serveWork) consume(e *engine, job uint32, d int64) {
	if w.live[job] += d; d < 0 && w.live[job] == 0 {
		w.park(e, job)
	}
}

// drop takes n destroyed nodes away from job, which is then booked lost
// once the rest of it is gone.
func (w *serveWork) drop(e *engine, job uint32, n int64) {
	w.lost[job] = true
	if w.live[job] -= n; w.live[job] == 0 {
		w.park(e, job)
	}
}

// park queues job, whose count just reached zero, for the resolve event.
func (w *serveWork) park(e *engine, job uint32) {
	w.lastDec[job] = e.kernel.Now()
	w.pending = append(w.pending, job)
	if !w.armed {
		w.armed = true
		e.kernel.After(0, w.resolveFn)
	}
}

// resolve books the parked jobs and checks for the finish.
func (w *serveWork) resolve(e *engine) {
	w.armed = false
	for _, job := range w.pending {
		w.book(e, job)
	}
	w.pending = w.pending[:0]
	w.finish(e, e.kernel.Now())
}

// book resolves a job whose count reached zero, at that instant
// (lastDec): lost if a fault destroyed any of its work, done otherwise.
func (w *serveWork) book(e *engine, job uint32) {
	j := &w.sched.Jobs[job]
	at := w.lastDec[job]
	if w.lost[job] {
		w.lostJobs++
		e.ev.Record(int(j.Root), at, trace.EvJobLost, int(j.Tenant), int64(j.ID))
		return
	}
	w.doneAt[job] = at
	w.doneJobs++
	e.ev.Record(int(j.Root), at, trace.EvJobDone, int(j.Tenant), int64(j.ID))
}

// horizon is the horizon tick: it keeps the kernel alive through the
// arrival window and arms the finish check.
func (w *serveWork) horizon(e *engine) {
	w.horizonTicked = true
	w.finish(e, e.kernel.Now())
}

// finish ends a serving run at instant at, provided the horizon has
// passed and every admitted job is resolved: every rank is retired.
// Events still queued (steal retries, in-flight replies) no-op against
// rsDone ranks, so the kernel drains. at is the horizon itself when the
// jobs resolved early, or the final resolution when the drain outlived
// it; it never precedes a recorded transition.
func (w *serveWork) finish(e *engine, at sim.Time) {
	if w.finished || !w.horizonTicked || w.doneJobs+w.lostJobs != w.sched.Admitted {
		return
	}
	w.finished = true
	e.markDetected(at)
	for r := range e.ranks {
		e.finishRank(r, at)
	}
}
