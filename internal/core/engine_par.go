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
	"fmt"

	"distws/internal/comm"
	"distws/internal/obs/parprof"
	"distws/internal/sim"
	"distws/internal/sim/par"
	"distws/internal/term"
	"distws/internal/topology"
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

	sk := par.New(shards, lookahead)
	defer sk.Release()
	ps := &parShared{
		sk:      sk,
		shardOf: shardOf,
		notes:   make([][]sim.Time, shards),
	}
	if cfg.Faults != nil {
		for _, c := range cfg.Faults.Crashes {
			if !ps.haveCrash || c.At < ps.firstCrash {
				ps.haveCrash, ps.firstCrash = true, c.At
			}
		}
	}
	if cfg.ParProfile {
		ps.prof = parprof.New(shards, lookahead)
	}
	kernels := make([]*sim.Kernel, shards)
	for s := range kernels {
		kernels[s] = sk.Kernel(s)
	}
	// The engines are built — and the work seeded — exactly as the
	// sequential run's one engine is, single-threaded: the windows have
	// not started.
	engines, err := newEngines(cfg, job, kernels, ps, nil)
	if err != nil {
		return nil, err
	}

	hooks := par.Hooks{
		Serialize: ps.serializeWindow,
		OnWindow: func(info par.WindowInfo) {
			ps.serialized = info.Serialized
			if engines[0].sv != nil {
				// Workers are quiescent and the upcoming window has not
				// started: fold the job-accounting deltas, complete the
				// drained jobs, and decide the finish.
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
	res, err := result(engines)
	if err == nil {
		res.Par = ps.prof
	}
	return res, err
}
