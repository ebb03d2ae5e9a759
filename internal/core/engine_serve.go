package core

// Open-system serving mode (DESIGN.md §15): Config.Serve turns the
// closed-system batch engine into a continuously loaded job service.
// The entire arrival schedule — instants, admission verdicts,
// placements, per-job workloads — is compiled before the simulation
// starts (internal/serve), so the engine merely replays it: arrival
// events are pre-scheduled on the kernel owning each job's placement
// rank (the same pattern as crash pre-scheduling), and the run ends
// when the horizon has passed and every admitted job has drained.
//
// Job-completion accounting rides a per-job live-node counter: the
// injected root counts one, expanding an internal node adds
// (children - 1), and consuming a leaf subtracts one. A job's nodes
// are tagged (uts.Node.Job) and follow the work wherever steals carry
// it, so live[j] reaching zero means no node of job j exists anywhere
// — stacks, staged expansions, or in-flight loot.
//
// Under Shards >= 2 the counter cannot be shared: pops happen inside
// parallel windows on many engines at once. Each shard engine instead
// accumulates deltas (svDelta) and latches its last dec instant
// (svLastDec); the coordinator folds them into the shared counters at
// each window barrier — workers quiescent, single-threaded — where it
// also decides the finish. The serving detector never serializes a
// window (it implements term.DecisionAware with a constant false), so
// serving runs keep the parallel kernel parallel. Sequential runs
// resolve completions on a zero-delay event instead, which keeps
// resolution out of the middle of startQuantum's expansion loop.
//
// Closed-system runs never touch any of this: every hook is behind a
// nil check on engine.sv, and TestGoldenFig9 pins byte-identity.

import (
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/sim/par"
	"distws/internal/term"
	"distws/internal/trace"
	"distws/internal/uts"
)

// openDetector stands in for the termination detector in serving
// mode: an open system ends by schedule (horizon plus drain), not by
// distributed detection, so it never fires and circulates no tokens.
// IdleDecisionPossible is constantly false, which keeps every sharded
// window parallel (engine_par.go's serialization policy).
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
func (openDetector) IdleDecisionPossible(int) bool             { return false }

// serveState is the run-wide serving bookkeeping. In a sharded run it
// is shared by the shard engines like ranks/det/sel: the slices are
// written only by a job's owning engine during windows (arrival
// injection) or by the coordinator at barriers (delta folding,
// completion), never concurrently.
type serveState struct {
	sched *serve.Schedule

	// live[j] is job j's node population; zero after injection means
	// the job fully drained. doneAt[j] is the completion instant (-1
	// while running); lastDec[j] the sequential dec-to-zero latch.
	live    []int64
	doneAt  []sim.Time
	lastDec []sim.Time

	doneJobs  int
	horizonAt sim.Time

	// Sequential-engine resolve machinery: completions detected inside
	// startQuantum are parked in pending and resolved by a zero-delay
	// event, so the finish never retires a rank in mid-expansion.
	horizonTicked bool
	pending       []uint32
	armed         bool
	resolveFn     func()
	finished      bool
}

func newServeState(sched *serve.Schedule) *serveState {
	n := len(sched.Jobs)
	sv := &serveState{
		sched:     sched,
		live:      make([]int64, n),
		doneAt:    make([]sim.Time, n),
		lastDec:   make([]sim.Time, n),
		horizonAt: sim.Time(0).Add(sched.Spec.Horizon),
	}
	for i := range sv.doneAt {
		sv.doneAt[i] = -1
		sv.lastDec[i] = -1
	}
	return sv
}

// compileServe builds the schedule and serve state for a validated
// config (nil when serving is disabled).
func compileServe(cfg Config) (*serveState, error) {
	if cfg.Serve == nil {
		return nil, nil
	}
	sched, err := serve.Compile(cfg.Serve, cfg.Ranks, cfg.Seed, cfg.NodeCost)
	if err != nil {
		return nil, err
	}
	return newServeState(sched), nil
}

// svArrive replays one compiled arrival: record the arrival and its
// admission verdict, and inject the job's root at the placement rank.
// Runs on the engine owning the rank (in sharded mode, inside a
// parallel window — it touches only this shard's ranks, this job's
// slots, and atomic counters).
func (e *engine) svArrive(idx int) {
	sv := e.sv
	j := &sv.sched.Jobs[idx]
	now := e.kernel.Now()
	root, tenant := int(j.Root), int(j.Tenant)
	e.ev.Record(root, now, trace.EvJobArrive, tenant, int64(j.ID))
	e.met.jobsArrived.Inc()
	if !j.Admitted {
		e.ev.Record(root, now, trace.EvJobReject, tenant, int64(j.ID))
		e.met.jobsRejected.Inc()
		return
	}
	e.ev.Record(root, now, trace.EvJobAdmit, tenant, int64(j.ID))
	e.met.jobsAdmitted.Inc()
	sv.live[idx]++
	e.injectNode(root, j.Node)
}

// injectNode roots a fresh job at rank r, mirroring the
// work-acceptance half of the TagWork handler: an idle rank ends its
// discovery session and starts computing; a working rank banks the
// node into its stack.
func (e *engine) injectNode(r int, node uts.Node) {
	rk := &e.ranks[r]
	now := e.kernel.Now()
	rk.generated++
	switch rk.state {
	case rsWorking:
		rk.stack.Push(node)
	case rsSearching, rsBackoff:
		// A pending steal reply becomes stale: TagNoWork is dropped by
		// the reqID check and TagWork loot is banked, so clearing the
		// victim here loses nothing.
		rk.pendingVictim = -1
		rk.lineage = 0
		e.rec.EndSession(r, now, true)
		e.met.session.Observe(int64(now.Sub(rk.idleSince)))
		e.rec.Record(r, now, trace.Active)
		rk.stack.Push(node)
		e.startQuantum(r)
	case rsDone, rsCrashed:
		// Unreachable: the run only finishes after every admitted job
		// drained, and serving excludes fault plans.
	}
}

// svConsume books a node expansion against its job: d is
// (children - 1) for an internal node and -1 for a leaf. Called from
// startQuantum's expansion loop.
func (e *engine) svConsume(job uint32, d int64) {
	if e.par != nil {
		// Parallel window: engine-local delta, folded at the barrier.
		e.svDelta[job] += d
		if d < 0 {
			e.svLastDec[job] = e.kernel.Now()
		}
		return
	}
	sv := e.sv
	sv.live[job] += d
	if d < 0 && sv.live[job] == 0 {
		sv.lastDec[job] = e.kernel.Now()
		sv.pending = append(sv.pending, job)
		if !sv.armed {
			sv.armed = true
			e.kernel.After(0, sv.resolveFn)
		}
	}
}

// svResolve drains the sequential completion queue: each parked job
// that has really drained completes.
func (e *engine) svResolve() {
	sv := e.sv
	sv.armed = false
	for i := 0; i < len(sv.pending); i++ {
		if job := sv.pending[i]; sv.live[job] == 0 && sv.doneAt[job] < 0 {
			e.svComplete(job)
		}
	}
	sv.pending = sv.pending[:0]
	e.serveFinish(e.kernel.Now())
}

// svComplete books a job whose live count hit zero as done, at the
// instant of its last leaf (lastDec).
func (e *engine) svComplete(job uint32) {
	sv := e.sv
	j := &sv.sched.Jobs[job]
	at := sv.lastDec[job]
	sv.doneAt[job] = at
	sv.doneJobs++
	e.ev.Record(int(j.Root), at, trace.EvJobDone, int(j.Tenant), int64(j.ID))
	sojourn := int64(at.Sub(j.At))
	e.met.jobsDone.Inc()
	e.met.jobSojourn.Observe(sojourn)
	e.met.tenantSojourn[j.Tenant].Observe(sojourn)
}

// svHorizon is the horizon tick: it keeps the kernel alive through
// the arrival window and, sequentially, arms the finish check.
func (e *engine) svHorizon() {
	if e.par != nil {
		return // the barrier decides from window bounds instead
	}
	e.sv.horizonTicked = true
	e.serveFinish(e.kernel.Now())
}

// serveFinish ends a serving run at instant at, provided the horizon
// has passed and every admitted job completed: every rank is retired.
// Events still queued (steal retries, in-flight replies) no-op against
// rsDone ranks, so the kernels drain. Called from sequential event
// context — at is then the horizon itself when the jobs drained early,
// or the final completion when the drain outlived it — or from a window
// barrier (workers quiescent); at never precedes a recorded transition
// in either case.
func (e *engine) serveFinish(at sim.Time) {
	sv := e.sv
	if sv.finished || !sv.horizonTicked || sv.doneJobs != sv.sched.Admitted {
		return
	}
	sv.finished = true
	e.markDetected(at)
	for r := range e.ranks {
		e.finishRank(r, at)
	}
}

// serveBarrier folds the shard engines' per-window deltas into the
// shared job counters, completes the jobs that drained, and decides
// the finish. Runs in the coordinator at each window barrier: workers
// are quiescent, so cross-shard reads and writes are single-threaded
// and the fold order (jobs ascending, shards ascending) is fixed.
func (ps *parShared) serveBarrier(info par.WindowInfo) {
	e0 := ps.engines[0]
	sv := e0.sv
	if sv.finished {
		return
	}
	for j := range sv.live {
		var last sim.Time = -1
		for _, en := range ps.engines {
			if en.svDelta[j] != 0 {
				sv.live[j] += en.svDelta[j]
				en.svDelta[j] = 0
			}
			if en.svLastDec[j] >= 0 {
				if en.svLastDec[j] > last {
					last = en.svLastDec[j]
				}
				en.svLastDec[j] = -1
			}
		}
		// A count reaches zero only by a leaf consumed in this window:
		// without one the job has not arrived, was rejected, or is
		// already booked.
		if last < 0 || sv.live[j] != 0 {
			continue
		}
		sv.lastDec[j] = last
		e0.svComplete(uint32(j))
	}
	sv.horizonTicked = info.Start > sv.horizonAt
	e0.serveFinish(info.Start)
}
