package core

// Sharded execution (DESIGN.md §13): the ranks are partitioned
// contiguously across Config.Shards engines, one per shard, each
// driving its own sequential sim.Kernel and comm.Network. The shard
// kernels advance in lockstep over conservative time windows
// (internal/sim/par) whose width is the minimum cross-shard message
// latency of the topology (topology.MinCrossLatency): no message
// staged during a window can be due before the window ends, so each
// shard may run its window to completion without hearing from the
// others. Cross-shard messages are claimed on the send path by a
// comm router, staged into per-shard-pair queues and merged at the
// barrier in (when, sent, sender, seq) order — a total order that does
// not depend on how the window's goroutines interleaved.
//
// Windows in which a non-local decision could occur are serialized:
// the coordinator steps the shard kernels one virtual instant at a
// time in global timestamp order (ties to the lowest shard index),
// which is exactly a sequential simulation. The triggers are
//
//  1. the detector does not implement term.DecisionAware (no way to
//     rule a verdict out, so never run parallel),
//  2. a fault plan with crashes, from the first crash time onward —
//     crash handling scans and mutates cross-shard state (ring
//     healing, dead-lettering, the initiator scan),
//  3. a fault plan once termination is detected (a premature Ring
//     verdict can dead-letter in-flight work at done ranks, booking
//     loss against remote senders),
//  4. a termination token is due at the initiator inside the window
//     (OnToken at the initiator can decide), and
//  5. the detector reports a parked token at the initiator could
//     decide on its next OnIdle (term.DecisionAware).
//
// Triggers 4 and 5 make every verdict land in a serialized window, so
// Result.Makespan and the termination broadcast are single-threaded
// and deterministic. Everything that runs during parallel windows
// touches only per-rank state owned by the executing shard, lock-free
// atomic metrics, or detector per-rank arrays whose shared fields
// (round, membership, colors of other ranks) are frozen while windows
// run parallel; the -race stress tests pin this.

import (
	"errors"
	"fmt"

	"distws/internal/comm"
	"distws/internal/fault"
	"distws/internal/obs"
	"distws/internal/obs/parprof"
	"distws/internal/sim"
	"distws/internal/sim/par"
	"distws/internal/term"
	"distws/internal/topology"
	"distws/internal/trace"
	"distws/internal/workstack"
)

// parShared is the state shared by the shard engines of one sharded
// run and their window coordinator.
type parShared struct {
	sk      *par.ShardedKernel
	engines []*engine
	// shardOf[r] is rank r's owning shard (contiguous partition).
	shardOf []int
	// da is the detector's serialization capability; nil forces every
	// window serialized.
	da term.DecisionAware
	// init is the current ring initiator, recomputed at each barrier
	// (it only moves when a crash kills it, which happens serialized);
	// routers read it concurrently during windows, so it must not be
	// recomputed mid-window.
	init int

	// haveCrash / firstCrash describe the fault plan's crash schedule.
	haveCrash  bool
	firstCrash sim.Time

	// serialized is the current window's mode, written by the
	// coordinator at the barrier and read by the routers during the
	// window (the barrier provides the happens-before edge). Serialized
	// windows bypass staging: the coordinator interleaves the shards in
	// global timestamp order, so a cross-shard message may be injected
	// into the destination kernel directly — which is also what makes
	// sub-lookahead deliveries (e.g. a terminate broadcast to a rank
	// near the initiator) legal there.
	serialized bool

	// notes[s] collects the delivery times of termination tokens shard
	// s sent toward the initiator (single writer per slice); the
	// coordinator drains them into pending at each barrier and
	// serializes any window in which one is due.
	notes   [][]sim.Time
	pending []sim.Time

	// prof, when non-nil, is the window ledger (Config.ParProfile);
	// cause carries the current window's serialization cause from the
	// Serialize decision to the OnWindow record. Both live purely in
	// coordinator context — recording never touches simulation state, so
	// a profiled run is byte-identical to an unprofiled one.
	prof  *parprof.Ledger
	cause parprof.Cause
}

// markDetected broadcasts the termination verdict to every shard
// engine. Only called from serialized windows (single-threaded).
func (ps *parShared) markDetected(at sim.Time) {
	for _, e := range ps.engines {
		e.detected = true
		e.detectedAt = at
	}
}

// router builds shard s's comm router: it claims every message bound
// for another shard, plus intra-shard messages due at or after the
// current window's end, and notes termination tokens headed for the
// initiator. Staging the beyond-window intra-shard deliveries is what
// keeps same-instant arrivals at one rank in sequential order: a
// cross-shard request and a local one delivered at the same nanosecond
// both go through the (when, sent, sender) merge, which ranks the
// earlier send first exactly as the sequential kernel's insertion
// order does. Only sub-window intra-shard deliveries take the direct
// path, and those can never tie with a barrier-merged message (a
// staged message due inside window [W, W+Δ) would have had to be sent
// before W, so it was merged at a barrier at or before W and already
// sits ahead of the window's resident events).
func (ps *parShared) router(s int) func(*comm.Message, sim.Duration) bool {
	return func(m *comm.Message, delay sim.Duration) bool {
		d := ps.shardOf[m.To]
		when := m.SentAt.Add(delay)
		if ps.serialized {
			if d == s {
				return false // global timestamp order: normal path is exact
			}
			if m.Tag == comm.TagToken && m.To == ps.init {
				ps.notes[s] = append(ps.notes[s], when)
			}
			ps.sk.Kernel(d).AtArg(when, ps.engines[d].net.DeliverFn(), m)
			return true
		}
		if d == s && when < ps.sk.WindowEnd() {
			return false // fires this window; cannot tie with staged arrivals
		}
		if m.Tag == comm.TagToken && m.To == ps.init {
			ps.notes[s] = append(ps.notes[s], when)
		}
		ps.sk.Stage(s, d, when, m.SentAt, m.From, ps.engines[d].net.DeliverFn(), m)
		return true
	}
}

// serializeWindow is the coordinator's per-window policy hook; see the
// package comment for the trigger list. The decision's cause is latched
// in ps.cause for the OnWindow ledger record.
func (ps *parShared) serializeWindow(start, end sim.Time) bool {
	ps.cause = ps.windowCause(start, end)
	return ps.cause.Serialized()
}

// windowCause evaluates the serialization triggers in decision order
// and names the first that fires (parprof's cause taxonomy), or
// CauseNone for a window that may run parallel.
func (ps *parShared) windowCause(start, end sim.Time) parprof.Cause {
	for s := range ps.notes {
		ps.pending = append(ps.pending, ps.notes[s]...)
		ps.notes[s] = ps.notes[s][:0]
	}
	keep := ps.pending[:0]
	tokenDue := false
	for _, t := range ps.pending {
		if t < start {
			continue // delivered in a past window
		}
		if t < end {
			tokenDue = true
		}
		keep = append(keep, t)
	}
	ps.pending = keep
	e0 := ps.engines[0]
	ps.init = e0.initiator()
	switch {
	case ps.da == nil:
		return parprof.CauseDetector
	case e0.inj != nil && ((ps.haveCrash && end > ps.firstCrash) || e0.detected):
		return parprof.CauseCrashPlan
	case tokenDue:
		return parprof.CauseTokenDue
	case ps.da.IdleDecisionPossible(ps.init):
		return parprof.CauseIdleDecision
	}
	return parprof.CauseNone
}

// runSharded executes cfg across cfg.Shards window-synchronized shard
// engines. Reached from Run once the config validated and the job
// placed; cfg.Shards >= 2 here.
func runSharded(cfg Config, job *topology.Job) (*Result, error) {
	if cfg.testProbe != nil {
		return nil, errors.New("core: testProbe is incompatible with Shards > 1")
	}
	shards := cfg.Shards
	shardOf := make([]int, cfg.Ranks)
	for r := range shardOf {
		shardOf[r] = r * shards / cfg.Ranks
	}
	lookahead, cross, err := topology.MinCrossLatency(job, shardOf, cfg.Latency)
	if err != nil {
		return nil, fmt.Errorf("core: shards=%d: %w", shards, err)
	}
	if !cross {
		// Unreachable for 2 <= shards <= ranks (every shard is
		// nonempty), but fail loudly rather than divide time by zero.
		return nil, fmt.Errorf("core: shards=%d: partition has no cross-shard rank pair", shards)
	}

	inj, err := fault.Compile(cfg.Faults, cfg.Ranks, nil)
	if err != nil {
		return nil, err
	}
	if inj.NeedsInterposer() {
		return nil, errors.New("core: fault plans with link faults or straggler send multipliers need the send-path interposer and cannot be sharded")
	}

	sk := par.New(shards, lookahead)
	defer sk.Release()
	det := cfg.Detector(cfg.Ranks)
	sv, err := compileServe(cfg)
	if err != nil {
		return nil, err
	}
	if sv != nil {
		// Serving replaces the detector; the open detector's constant
		// IdleDecisionPossible=false keeps every window parallel.
		det = openDetector{}
	}
	da, _ := det.(term.DecisionAware)
	ps := &parShared{
		sk:      sk,
		shardOf: shardOf,
		da:      da,
		notes:   make([][]sim.Time, shards),
	}
	if inj != nil {
		for _, c := range cfg.Faults.SortedCrashes() {
			if !ps.haveCrash || c.At < ps.firstCrash {
				ps.haveCrash, ps.firstCrash = true, c.At
			}
		}
	}

	// Shared run state: exactly what the sequential engine would build,
	// wired into every shard engine.
	sel := cfg.Selector(job, cfg.Seed)
	var rec *trace.Recorder
	var ev *obs.Recorder
	if cfg.CollectTrace || cfg.CollectEvents {
		rec = trace.NewRecorder(cfg.Ranks)
	}
	if cfg.CollectEvents {
		ev = obs.NewRecorder(cfg.Ranks, cfg.EventBuffer)
	}
	met := newEngineMetrics(cfg.Metrics, cfg.Ranks, inj != nil, cfg.serveTenants())
	ranks := make([]rank, cfg.Ranks)
	rankArg := make([]any, cfg.Ranks)
	for i := range rankArg {
		rankArg[i] = i
	}

	engines := make([]*engine, shards)
	for s := range engines {
		e := &engine{
			cfg:        cfg,
			kernel:     sk.Kernel(s),
			job:        job,
			det:        det,
			sel:        sel,
			rec:        rec,
			ev:         ev,
			met:        met,
			ranks:      ranks,
			rankArg:    rankArg,
			backoffCfg: cfg.backoff(),
			inj:        inj,
			sv:         sv,
			par:        ps,
		}
		e.kernel.SetTimeLimit(cfg.MaxVirtualTime)
		e.net = comm.New(e.kernel, job, cfg.Latency)
		e.bindTimers()
		engines[s] = e
	}
	ps.engines = engines
	for s, e := range engines {
		e.net.SetRouter(ps.router(s))
		e.net.SetDeliveryHook(e.deliveryHook())
	}
	for r := 0; r < cfg.Ranks; r++ {
		ranks[r].stack = workstack.New(cfg.ChunkSize)
		ranks[r].pendingVictim = -1
		r := r
		e := engines[shardOf[r]]
		e.net.SetNotify(r, func() { e.onDelivery(r) })
	}
	if inj != nil {
		for _, e := range engines {
			e.blAfter, e.blFor = e.backoffCfg.BlacklistAfter, e.backoffCfg.BlacklistFor
			if e.blAfter <= 0 {
				e.blAfter = DefaultBackoff.BlacklistAfter
			}
			if e.blFor <= 0 {
				e.blFor = DefaultBackoff.BlacklistFor
			}
			e := e
			e.reprobeFn = e.reprobeSurvivor
		}
		for i := range ranks {
			ranks[i].crashedAt = -1
			ranks[i].timeouts = make(map[int]int)
			ranks[i].blackUntil = make(map[int]sim.Time)
		}
		for _, c := range cfg.Faults.SortedCrashes() {
			c := c
			oe := engines[shardOf[c.Rank]]
			oe.kernel.At(c.At, func() { oe.crashRank(c.Rank) })
		}
	}

	e0 := engines[0]
	if sv == nil {
		// Seed the work exactly as the sequential engine does, in rank
		// order (single-threaded: the windows have not started).
		root := cfg.Tree.Root()
		ranks[0].stack.Push(root)
		ranks[0].generated++
		e0.recordState(0, 0, trace.Active)
		e0.startQuantum(0)
		for r := 1; r < cfg.Ranks; r++ {
			engines[shardOf[r]].goIdle(r)
		}
	} else {
		// Serving: every rank starts idle; each compiled arrival is
		// pre-scheduled on the kernel owning its placement rank (the
		// crash pre-scheduling pattern). The per-engine delta arrays
		// carry job accounting from parallel windows to the barrier
		// fold, and a no-op horizon tick keeps shard 0's kernel (and
		// hence the windows) alive through a quiet arrival plan.
		for _, e := range engines {
			e.svDelta = make([]int64, len(sv.sched.Jobs))
			e.svLastDec = make([]sim.Time, len(sv.sched.Jobs))
			for i := range e.svLastDec {
				e.svLastDec[i] = -1
			}
		}
		for r := 0; r < cfg.Ranks; r++ {
			engines[shardOf[r]].goIdle(r)
		}
		for i := range sv.sched.Jobs {
			idx := i
			oe := engines[shardOf[sv.sched.Jobs[i].Root]]
			oe.kernel.At(sv.sched.Jobs[i].At, func() { oe.svArrive(idx) })
		}
		e0.kernel.At(sv.horizonAt, func() {})
	}

	if cfg.ParProfile {
		ps.prof = parprof.New(shards, lookahead)
	}
	hooks := par.Hooks{
		Serialize: ps.serializeWindow,
		OnWindow: func(info par.WindowInfo) {
			ps.serialized = info.Serialized
			if sv != nil {
				// Workers are quiescent and the upcoming window has not
				// started: fold the job-accounting deltas, inject due
				// waves at info.Start, and decide the finish.
				ps.serveBarrier(info)
			}
			if ps.prof == nil {
				return
			}
			cause := parprof.CauseNone
			if info.Serialized {
				// ps.cause was latched by serializeWindow for this
				// window; CauseCallerForced is the defensive fallback
				// for par users whose Serialize bypasses the policy.
				if cause = ps.cause; cause == parprof.CauseNone {
					cause = parprof.CauseCallerForced
				}
			}
			ps.prof.Record(info.Start, info.End, cause, info.Merged, info.Pairs)
		},
		Wall: cfg.ParWallProbe,
	}
	if err := sk.Run(hooks); err != nil {
		return nil, fmt.Errorf("core: sharded simulation (%d shards) aborted: %w", shards, err)
	}
	if !e0.detected {
		return nil, fmt.Errorf("core: event queue drained without termination detection")
	}
	totals := make([]engineTotals, shards)
	for s, e := range engines {
		totals[s] = e.totals()
	}
	res := e0.resultFrom(mergeTotals(totals))
	res.Par = ps.prof
	return res, nil
}
