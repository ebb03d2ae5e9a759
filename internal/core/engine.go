package core

import (
	"fmt"

	"distws/internal/comm"
	"distws/internal/fault"
	"distws/internal/obs"
	"distws/internal/obs/parprof"
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/term"
	"distws/internal/topology"
	"distws/internal/trace"
	"distws/internal/uts"
	"distws/internal/victim"
	"distws/internal/workstack"
)

// rankState is a rank's scheduling state.
type rankState uint8

const (
	// rsWorking: the rank has work and a quantum event scheduled.
	rsWorking rankState = iota
	// rsSearching: the rank sent a steal request and awaits the reply.
	rsSearching
	// rsBackoff: the rank is idle, pausing between steal attempts.
	rsBackoff
	// rsDone: the rank observed termination.
	rsDone
	// rsCrashed: the rank fail-stopped (fault injection); it never acts
	// again and everything addressed to it is discarded on arrival.
	rsCrashed
)

// Backoff controls how idle ranks throttle steal attempts once a long
// run of consecutive failures indicates global work scarcity. The
// reference implementation retries immediately forever; simulating
// 8192 ranks in one address space makes that O(N^2) tail traffic
// prohibitively expensive, so after Threshold consecutive failures the
// thief waits Base, doubling up to Max, resetting on success. Set
// Threshold < 0 to disable (reference-faithful); the ablation bench
// A6 shows the experiment conclusions are insensitive to this knob.
type Backoff struct {
	Threshold int
	Base, Max sim.Duration

	// BlacklistAfter and BlacklistFor extend the policy under a fault
	// plan: after BlacklistAfter consecutive timeouts against the same
	// victim, the thief stops picking it for BlacklistFor of virtual
	// time (a crashed rank never answers, so retrying it is pure
	// waste). Zero values select the defaults below. Without a fault
	// plan the fields are ignored — fault-free timeouts come from the
	// aborting-steals ablation, where the victim is alive and merely
	// slow, and skipping it would change the experiment.
	BlacklistAfter int
	BlacklistFor   sim.Duration
}

// DefaultBackoff is used when Config.Backoff is the zero value.
var DefaultBackoff = Backoff{
	Threshold:      64,
	Base:           100 * sim.Microsecond,
	Max:            2 * sim.Millisecond,
	BlacklistAfter: 2,
	BlacklistFor:   1 * sim.Millisecond,
}

// rank is the per-rank engine state, one element of the engine's rank
// slab. The layout is a cache-line budget (DESIGN.md §10,
// TestRankHotLayout): the first 64 bytes are everything a thief reads
// and writes between a reply and its next request, the work stack
// follows by value so that a request finds the victim's state and its
// node count on one aligned 128-byte pair — and a quantum the header of
// the stack's top segment, one load from the node it pops — and what
// only a working rank touches comes after. The struct is a multiple of 64 bytes, so
// every element of the slab starts on a line.
type rank struct {
	state rankState
	// lastAborted flags that the next request is a post-timeout retry
	// (traced as EvStealRetry).
	lastAborted bool
	recovering  bool // a steal timed out; work not yet refound (fault plans only)
	consecFails int32
	// pendingVictim is the victim of the outstanding request, -1 when
	// there is none.
	pendingVictim int32
	// consecTimeouts counts steal timeouts since the last reply.
	consecTimeouts int32
	reqID          uint64 // id of the outstanding request
	waitStart      sim.Time
	searchWait     sim.Duration // total time waiting for replies
	fails          uint64
	requests       uint64
	backoff        sim.Duration

	stack workstack.Stack

	// In-progress node expansion, resumable across quanta so that a
	// high-fanout node (e.g. a root with thousands of children) does
	// not create a polling blackout. The node being expanded is staged
	// in gen; expNext < expTotal while children remain to generate.
	gen               uts.ChildGen
	expNext, expTotal int
	// job is the serving job whose params gen last staged a parent
	// under (nil in a closed run).
	job *serve.Job

	// Tree statistics. units is the accumulated expansion cost in
	// NodeCost units (one per child generated, one per leaf).
	nodes, leaves, units uint64
	// generated counts nodes this rank materialized: rank 0's root plus
	// every child it pushed. Summed over ranks it bounds the whole
	// tree; under fault injection the accounting invariant is
	// completed + lost == generated.
	generated uint64
	maxDepth  int32
	// lineage is the migration depth of the work the rank currently
	// holds: 0 for rank 0's root work, and d+1 after accepting a
	// transfer whose loot had depth d. Victims stamp outgoing loot with
	// lineage+1, so steal chains i→j→k are recoverable from transfers.
	lineage int32

	// quantum is the pending quantum-end event, if any (zero when none).
	quantum sim.Event
	// stealTimer is the armed steal timeout, if any: sendSteal cancels
	// the superseded request's timer before arming the next, so the one
	// that fires always belongs to the current request.
	stealTimer sim.Event
	// extraDelay accumulates steal-response packaging costs that push
	// the next quantum start.
	extraDelay sim.Duration

	// The rest of the steal statistics.
	successes, aborted uint64
	idleSince          sim.Time // start of the current work-discovery session
	sessions           uint64

	// Fault-injection state, touched only when a fault plan is active;
	// the maps are allocated by the first timeout that writes them.
	crashedAt    sim.Time
	lostNodes    uint64
	timeouts     map[int]int      // per-victim consecutive timeouts
	blackUntil   map[int]sim.Time // victim → blacklisted until
	blacklists   uint64
	recoverStart sim.Time // when the first timeout of the outage hit
}

// counters are the run-global tallies a Result needs. A sequential
// run has one engine and one set; the shard engines of a sharded run
// each keep their own, and every field is a plain sum, so sumCounters
// merges them exactly, not approximately.
type counters struct {
	workSent, workReceived uint64
	lostMsgs               uint64
	// migDepths[d] counts accepted transfers whose loot had migration
	// depth d; grown on demand (depths start at 1, so index 0 stays 0).
	migDepths []uint64

	crashes      int
	lostNodes    uint64
	tokenRegens  uint64
	recoveries   uint64
	recoverTotal sim.Duration
}

type engine struct {
	cfg    Config
	kernel *sim.Kernel
	net    *comm.Network
	det    term.Detector
	sel    victim.Selector
	rec    *trace.Recorder // activity trace; nil when disabled
	ev     *obs.Recorder   // protocol event rings; nil when disabled
	met    engineMetrics   // registry handles; all nil when disabled
	ranks  []rank

	// rankID[r] == r, and quantumEndFn, backoffEndFn and stealTimeoutFn
	// are the shared timer callbacks: a timer's argument is &rankID[r],
	// a pointer and so free to box, which lets the per-rank timers
	// schedule through the kernel's closure-free AfterArg path instead
	// of allocating a closure per quantum, backoff pause or steal
	// timeout.
	rankID         []int32
	quantumEndFn   func(any)
	backoffEndFn   func(any)
	stealTimeoutFn func(any)

	backoffCfg Backoff

	// loot is the free list of loot buffers (getLoot, putLoot): a victim
	// packs a steal reply into one and the thief hands it back once the
	// nodes are on its own stack, so a steady-state steal allocates
	// nothing. Per engine — in a sharded run a buffer taken from the
	// victim's shard list ends up on the thief's, and each list is
	// touched by its own shard's goroutine only.
	loot [][]uts.Node

	// Fault injection. inj is nil for fault-free runs, keeping every
	// hot path on its existing branch-free course; reprobeFn is the
	// shared deferred lone-survivor check (see scheduleReprobe).
	inj       *fault.Injector
	reprobeFn func()

	counters
	detectedAt sim.Time
	detected   bool

	// sv is the open-system serving state (engine_serve.go): nil for
	// closed-system runs, shared across the shard engines of a sharded
	// serving run. svDelta and svLastDec are this engine's per-window
	// job-accounting deltas, folded at barriers (sharded runs only).
	sv        *serveState
	svDelta   []int64
	svLastDec []sim.Time

	// dag is the task-graph workload's state (engine_dag.go): nil for
	// tree runs.
	dag *dagState

	// par links the engine into a sharded run (engine_par.go): nil for
	// sequential runs, where every field above is engine-global. In a
	// sharded run each shard owns one engine; ranks, det, sel, rec, ev
	// and the registry behind met are shared across the shard engines
	// while the counters above and met's link tally are per shard.
	par *parShared
}

// Result summarizes one simulated execution.
type Result struct {
	// Config echo for reports.
	Ranks     int
	Placement topology.Placement
	Selector  string
	Steal     StealPolicy

	// Tree totals, verified against sequential enumeration by tests.
	Nodes    uint64
	Leaves   uint64
	MaxDepth int32

	// Makespan is the virtual time at which termination was detected at
	// rank 0 (what the benchmark's wall clock would report).
	Makespan sim.Duration
	// SequentialTime is the total expansion cost (child generations
	// times NodeCost): the virtual time one rank would need to search
	// the whole tree, the baseline for Speedup and Efficiency.
	SequentialTime sim.Duration
	Speedup        float64
	Efficiency     float64

	// Steal statistics (paper §V-A).
	StealRequests    uint64
	FailedSteals     uint64
	SuccessfulSteals uint64
	// AbortedSteals counts requests abandoned by their timeout (only
	// nonzero when Config.StealTimeout enables aborting steals).
	AbortedSteals uint64
	// MeanSearchTime is the average, over ranks, of the total time each
	// rank spent waiting for steal answers ("search time").
	MeanSearchTime sim.Duration
	// MeanSessionDuration is the average work-discovery session length
	// (Figure 10); zero if tracing was disabled or no sessions exist.
	MeanSessionDuration sim.Duration
	Sessions            uint64

	// ChunksTransferred counts chunks moved by successful steals.
	ChunksTransferred uint64

	// MigrationDepths histograms the work-lineage depth of accepted
	// transfers: MigrationDepths[d] transfers carried loot that had
	// survived d steals since rank 0's root work (depth 1 = stolen
	// straight from the root owner's line). MaxMigrationDepth is the
	// longest steal chain observed.
	MigrationDepths   []uint64
	MaxMigrationDepth int

	// Load imbalance across ranks, as the UTS reports print: the
	// fraction of all nodes expanded by the busiest and laziest rank,
	// and the ratio busiest/mean ("imbalance", 1.0 = perfect).
	MaxRankNodes, MinRankNodes uint64
	Imbalance                  float64

	// Termination detection.
	Detector          string
	TerminationRounds int
	// Premature is true when the detector fired while work remained —
	// possible for the Ring detector with in-flight messages, never for
	// Safra. The node counts are then incomplete.
	Premature bool

	// Comm is the network traffic summary.
	Comm comm.Stats

	// NodesGenerated is the number of tree nodes materialized across
	// all ranks (rank 0's root plus every child pushed). Fault-free it
	// equals Nodes; under fault injection the shortfall is exactly the
	// work that died: Nodes + LostNodes == NodesGenerated.
	NodesGenerated uint64

	// Fault-injection summary, populated only when Config.Faults was
	// active (all zero / nil otherwise).
	CrashedRanks int
	// LostNodes counts nodes destroyed by faults: stacks wiped by
	// crashes plus loot in work messages that were dropped or
	// dead-lettered at a crashed rank.
	LostNodes uint64
	// LostMessages counts work messages that were never processed.
	LostMessages uint64
	// TokenRegens counts termination tokens regenerated after a crash
	// took one down (or took the ring initiator).
	TokenRegens uint64
	// Recoveries counts outages survived by thieves: episodes from a
	// first steal timeout to the next successful work receipt.
	// MeanRecoveryLatency averages their durations.
	Recoveries          uint64
	MeanRecoveryLatency sim.Duration
	// PerRankFaults is the per-rank fault table.
	PerRankFaults []RankFault

	// Trace is the activity trace, when Config.CollectTrace was set.
	Trace *trace.Trace

	// Serve is the serving summary, when Config.Serve was set (nil
	// otherwise): per-tenant arrival/admission/completion counts,
	// sojourn percentiles, goodput and the Jain fairness index.
	Serve *serve.Stats

	// Par is the parallel-kernel window ledger, when Config.ParProfile
	// was set (nil otherwise). For sequential runs (Shards <= 1) it is
	// the empty degenerate ledger: one shard, no windows. The ledger is
	// excluded from every determinism artifact the engine emits — the
	// golden registry dumps and observer-freedom comparisons never see
	// it — but is itself bit-deterministic for a fixed (Config, Shards).
	Par *parprof.Ledger
}

// RankFault is one rank's row in the fault table.
type RankFault struct {
	Rank    int
	Crashed bool
	// CrashedAt is the virtual time of death (-1 if it survived).
	CrashedAt sim.Time
	// LostNodes counts nodes this rank owned that died: its stack at
	// crash time, plus loot it sent that was dropped or dead-lettered.
	LostNodes uint64
	// Timeouts and Blacklists count this rank's steal timeouts and the
	// victims it temporarily blacklisted after repeated timeouts.
	Timeouts   uint64
	Blacklists uint64
}

// Run executes the configured simulation to termination and returns its
// results. The run is deterministic: identical configurations produce
// identical results.
func Run(cfg Config) (*Result, error) { return run(cfg, nil) }

// run is Run and RunGraph: the workload is cfg.Tree (or cfg.Serve's
// jobs) when d is nil, d's task graph otherwise.
func run(cfg Config, d *dagState) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	job, err := topology.NewJob(cfg.Machine, cfg.Ranks, cfg.Placement)
	if err != nil {
		return nil, err
	}
	if cfg.Shards > 1 {
		return runSharded(cfg, job)
	}
	k := sim.NewKernel()
	defer k.Release()
	engines, err := newEngines(cfg, job, []*sim.Kernel{k}, nil, d)
	if err != nil {
		return nil, err
	}
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("core: simulation aborted at virtual %v after %d events: %w",
			k.Now(), k.Dispatched(), err)
	}
	res, err := result(engines)
	if err == nil && cfg.ParProfile {
		// Sequential degenerate: one shard, no windows. Documents the
		// run's shape so profiling tooling needs no special casing.
		res.Par = parprof.New(1, 0)
	}
	return res, err
}

// newEngines is the one constructor: it builds the engine of a
// sequential run (one kernel, ps nil) or the shard engines of a sharded
// one (a kernel per shard, ps their coordinator state), seeds the work
// — the tree's root, the roots of d's graph when d is not nil, nothing
// when serving — and pre-schedules every planned event, so the caller
// only has to run the kernel(s). The engines share the detector,
// selector, recorders, metrics registry, injector, serve state and rank
// slab; each owns its kernel, its network, its timer callbacks, its
// counters and its link tally. Everything that acts on a rank — its
// crash, its first idle transition, a job arrival rooted at it — goes
// through the engine owning that rank.
func newEngines(cfg Config, job *topology.Job, kernels []*sim.Kernel, ps *parShared, d *dagState) ([]*engine, error) {
	inj, err := fault.Compile(cfg.Faults, cfg.Ranks, kernels[0])
	if err != nil {
		return nil, err
	}
	sv, err := compileServe(cfg)
	if err != nil {
		return nil, err
	}
	det := cfg.Detector(cfg.Ranks)
	if sv != nil {
		det = openDetector{}
	}
	var rec *trace.Recorder
	var ev *obs.Recorder
	if cfg.CollectTrace || cfg.CollectEvents {
		// The event log rides on the trace, so CollectEvents implies it.
		rec = trace.NewRecorder(cfg.Ranks)
	}
	if cfg.CollectEvents {
		ev = obs.NewRecorder(cfg.Ranks, cfg.EventBuffer)
	}
	ranks := make([]rank, cfg.Ranks)
	rankID := make([]int32, cfg.Ranks)
	for i := range ranks {
		rankID[i] = int32(i)
		ranks[i].stack.Init(cfg.ChunkSize)
		ranks[i].pendingVictim = -1
		if inj != nil {
			ranks[i].crashedAt = -1
		}
	}

	sel := cfg.Selector(job, cfg.Seed)
	engines := make([]*engine, len(kernels))
	for s, k := range kernels {
		k.SetTimeLimit(cfg.MaxVirtualTime)
		e := &engine{
			cfg:        cfg,
			kernel:     k,
			net:        comm.New(k, job, cfg.Latency),
			det:        det,
			sel:        sel,
			rec:        rec,
			ev:         ev,
			met:        newEngineMetrics(cfg.Metrics, cfg.Ranks, inj != nil, cfg.serveTenants()),
			ranks:      ranks,
			rankID:     rankID,
			backoffCfg: cfg.backoff(),
			inj:        inj,
			sv:         sv,
			par:        ps,
		}
		e.bindTimers()
		e.net.SetDeliveryHook(e.deliveryHook())
		if ps != nil {
			e.net.SetRouter(ps.router(s))
			if sv != nil {
				// Job accounting travels from the parallel windows to the
				// barrier fold in per-engine delta arrays.
				e.svDelta = make([]int64, len(sv.sched.Jobs))
				e.svLastDec = make([]sim.Time, len(sv.sched.Jobs))
				for i := range e.svLastDec {
					e.svLastDec[i] = -1
				}
			}
		}
		engines[s] = e
	}
	e0 := engines[0]
	if ps != nil {
		ps.engines = engines
		ps.da, _ = det.(term.DecisionAware)
	}
	// Crash-only plans skip the interposer entirely; link faults and
	// straggler send multipliers need it on the send path (and Validate
	// keeps them out of sharded runs).
	if inj.NeedsInterposer() {
		inj.OnDrop = e0.onMessageDrop
		inj.OnDup = e0.onMessageDup
		e0.net.SetInterposer(inj)
	}
	if inj != nil {
		for _, c := range cfg.Faults.SortedCrashes() {
			oe, r := e0.owner(c.Rank), c.Rank
			oe.kernel.At(c.At, func() { oe.crashRank(r) })
		}
	}

	// Closed system: rank 0 owns the root and everyone else starts
	// searching at t = 0; a graph's roots are dealt out instead (RunGraph
	// keeps graphs sequential and closed). Serving: no pre-seeded root —
	// every rank starts idle, and the compiled arrivals drive the run
	// until the horizon tick, which also keeps the first kernel (and hence
	// a sharded run's windows) alive through a quiet arrival plan.
	idleFrom := 0
	switch {
	case d != nil:
		e0.dag = d
		idleFrom = e0.seedGraph()
	case sv == nil:
		ranks[0].stack.Push(cfg.Tree.Root())
		ranks[0].generated++
		e0.rec.Record(0, 0, trace.Active)
		e0.startQuantum(0)
		idleFrom = 1
	}
	for r := idleFrom; r < cfg.Ranks; r++ {
		e0.owner(r).goIdle(r)
	}
	if sv != nil {
		sv.resolveFn = e0.svResolve
		for i := range sv.sched.Jobs {
			idx, oe := i, e0.owner(int(sv.sched.Jobs[i].Root))
			oe.kernel.At(sv.sched.Jobs[i].At, func() { oe.svArrive(idx) })
		}
		e0.kernel.At(sv.horizonAt, e0.svHorizon)
	}
	return engines, nil
}

// rankOf recovers r from a timer argument, which is &e.rankID[r].
func rankOf(a any) int { return int(*a.(*int32)) }

// bindTimers builds the engine's shared per-rank timer callbacks.
func (e *engine) bindTimers() {
	e.quantumEndFn = func(a any) { e.quantumEnd(rankOf(a)) }
	e.backoffEndFn = func(a any) {
		if r := rankOf(a); e.ranks[r].state == rsBackoff {
			e.sendSteal(r)
		}
	}
	e.stealTimeoutFn = func(a any) {
		r := rankOf(a)
		e.ranks[r].stealTimer = sim.Event{}
		e.abortSteal(r)
	}
	e.reprobeFn = e.reprobeSurvivor
}

// owner returns the engine owning rank r — its kernel holds the rank's
// events and its network the rank's mailbox: e itself in a sequential
// run, the rank's shard engine in a sharded one.
func (e *engine) owner(r int) *engine {
	if e.par == nil {
		return e
	}
	return e.par.engines[e.par.shardOf[r]]
}

// backoff resolves the backoff policy from the config, blacklist
// defaults included.
func (c Config) backoff() Backoff {
	// The zero value selects the default; Threshold < 0 disables.
	b := c.BackoffPolicy
	if (b == Backoff{}) {
		return DefaultBackoff
	}
	if b.BlacklistAfter <= 0 {
		b.BlacklistAfter = DefaultBackoff.BlacklistAfter
	}
	if b.BlacklistFor <= 0 {
		b.BlacklistFor = DefaultBackoff.BlacklistFor
	}
	return b
}

// startQuantum expands up to PollInterval nodes from rank r's stack and
// schedules the quantum-end event after the corresponding virtual
// compute time (plus any accumulated steal-response overhead). The
// stack mutation happens eagerly; it becomes observable to thieves at
// quantum end, which is when the rank polls its mailbox — matching a
// two-sided MPI process that only makes communication progress between
// node expansions.
func (e *engine) startQuantum(r int) {
	rk := &e.ranks[r]
	rk.state = rsWorking
	e.ev.Record(r, e.kernel.Now(), trace.EvQuantumStart, -1, int64(rk.stack.Len()))
	if e.dag != nil {
		e.startTask(r)
		return
	}
	// Expansion cost is dominated by child generation (one hash chain
	// per child), so a leaf costs one unit and an internal node one
	// unit per child. Child generation is resumable: a quantum ends
	// after PollInterval units even in the middle of a high-fanout
	// node, so the rank keeps polling at a bounded period.
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
		if e.sv != nil {
			// Serving: each job's nodes expand under the job's own
			// params. A rank pops long runs of one job's nodes, so the
			// schedule is consulted only when the job changes.
			if rk.job == nil || rk.job.ID != node.Job {
				rk.job = &e.sv.sched.Jobs[node.Job]
			}
			tree = &rk.job.Tree
		}
		nchild := rk.gen.Reset(tree, &node)
		if nchild == 0 {
			rk.leaves++
			rk.units++
			if e.sv != nil {
				e.svConsume(node.Job, -1)
			}
			continue
		}
		if e.sv != nil && nchild > 1 {
			e.svConsume(node.Job, int64(nchild-1))
		}
		rk.expNext = 0
		rk.expTotal = nchild
	}
	compute := sim.Duration(rk.units-start) * e.cfg.NodeCost
	if e.inj != nil {
		compute = e.inj.ScaleCompute(r, compute)
	}
	dur := compute + rk.extraDelay
	rk.extraDelay = 0
	rk.quantum = e.kernel.AfterArg(dur, e.quantumEndFn, &e.rankID[r])
}

func (e *engine) quantumEnd(r int) {
	rk := &e.ranks[r]
	rk.quantum = sim.Event{}
	if rk.state == rsDone || rk.state == rsCrashed {
		return
	}
	if e.dag != nil {
		e.completeTask(r)
	}
	e.ev.Record(r, e.kernel.Now(), trace.EvQuantumEnd, -1, int64(rk.units))
	e.pollMailbox(r)
	if rk.state == rsDone {
		return
	}
	if !rk.stack.Empty() || rk.expNext < rk.expTotal {
		e.startQuantum(r)
		return
	}
	e.goIdle(r)
}

// goIdle transitions rank r from working (or initial state) to idle:
// trace the phase change, open a work-discovery session, let the
// termination detector act, then start searching for a victim.
func (e *engine) goIdle(r int) {
	rk := &e.ranks[r]
	now := e.kernel.Now()
	rk.state = rsBackoff // idle until sendSteal marks it searching
	rk.extraDelay = 0    // request-handling debt is moot once idle
	rk.idleSince = now
	e.rec.Record(r, now, trace.Idle)
	e.rec.BeginSession(r, now)
	rk.sessions++
	e.forwardTokens(e.det.OnIdle(r))
	if e.checkTermination() {
		return
	}
	if e.cfg.Ranks == 1 {
		// No one to steal from; wait for the detector (which must have
		// fired above for a single rank).
		rk.state = rsBackoff
		return
	}
	e.sendSteal(r)
}

// sendSteal picks the next victim and posts a steal request, arming the
// abort timer when aborting steals are enabled.
func (e *engine) sendSteal(r int) {
	rk := &e.ranks[r]
	v := e.sel.Next(r)
	if e.inj != nil {
		v = e.skipBlacklisted(r, v)
	}
	rk.pendingVictim = int32(v)
	rk.reqID++
	id := rk.reqID
	rk.requests++
	rk.waitStart = e.kernel.Now()
	rk.state = rsSearching
	if rk.lastAborted {
		rk.lastAborted = false
		e.ev.Record(r, rk.waitStart, trace.EvStealRetry, v, int64(rk.consecTimeouts))
	}
	e.ev.Record(r, rk.waitStart, trace.EvStealSend, v, int64(id))
	e.met.stealRequests.Inc()
	e.met.links.Inc(r, v)
	e.net.SendID(r, v, comm.TagStealRequest, id, 16)
	if e.cfg.StealTimeout > 0 {
		e.kernel.Cancel(rk.stealTimer)
		rk.stealTimer = e.kernel.AfterArg(e.cfg.StealTimeout, e.stealTimeoutFn, &e.rankID[r])
	}
}

// skipBlacklisted re-rolls the victim choice past temporarily
// blacklisted ranks (bounded, so a thief surrounded by corpses still
// sends — and times out — rather than spinning).
func (e *engine) skipBlacklisted(r, v int) int {
	rk := &e.ranks[r]
	if len(rk.blackUntil) == 0 {
		return v
	}
	now := e.kernel.Now()
	for tries := 0; tries < 8; tries++ {
		until, ok := rk.blackUntil[v]
		if !ok {
			return v
		}
		if now >= until {
			delete(rk.blackUntil, v)
			return v
		}
		v = e.sel.Next(r)
	}
	return v
}

// abortSteal gives up on rank r's outstanding request when its timeout
// fires before the reply (aborting steals, Dinan et al.). A late work
// reply is still accepted if it ever arrives.
func (e *engine) abortSteal(r int) {
	rk := &e.ranks[r]
	if rk.state != rsSearching {
		return // the reply arrived, or this rank moved on
	}
	v, id := int(rk.pendingVictim), rk.reqID
	now := e.kernel.Now()
	rk.searchWait += now.Sub(rk.waitStart)
	rk.aborted++
	rk.consecFails++
	rk.consecTimeouts++
	rk.lastAborted = true
	rk.pendingVictim = -1
	if e.inj != nil {
		if !rk.recovering {
			rk.recovering = true
			rk.recoverStart = rk.waitStart
		}
		if rk.timeouts == nil {
			rk.timeouts = make(map[int]int)
		}
		rk.timeouts[v]++
		if rk.timeouts[v] >= e.backoffCfg.BlacklistAfter {
			delete(rk.timeouts, v)
			if rk.blackUntil == nil {
				rk.blackUntil = make(map[int]sim.Time)
			}
			rk.blackUntil[v] = now.Add(e.backoffCfg.BlacklistFor)
			rk.blacklists++
		}
	}
	e.ev.Record(r, now, trace.EvStealAbort, v, int64(id))
	e.met.stealAborted.Inc()
	e.met.stealLatency.Observe(int64(now.Sub(rk.waitStart)))
	e.sel.Observe(r, v, false)
	e.rec.SessionAttempt(r, true)
	e.retryOrBackoff(r)
}

// crashRank fail-stops rank r at the current virtual time: its stack
// and queued mailbox die with it, the termination ring heals around
// the corpse (regenerating any token it held), and every later
// delivery to it is discarded on arrival.
func (e *engine) crashRank(r int) {
	rk := &e.ranks[r]
	if rk.state == rsDone || rk.state == rsCrashed {
		return // termination beat the crash; nothing left to kill
	}
	now := e.kernel.Now()
	wasWorking := rk.state == rsWorking
	stackLost := uint64(rk.stack.Drop())
	rk.expNext, rk.expTotal = 0, 0 // staged children were never generated
	rk.crashedAt = now
	rk.lostNodes += stackLost
	e.lostNodes += stackLost
	e.crashes++
	e.kernel.Cancel(rk.quantum)
	rk.quantum = sim.Event{}
	rk.state = rsCrashed
	e.ev.Record(r, now, trace.EvCrash, -1, int64(stackLost))
	e.met.crashes.Inc()
	e.met.lostNodes.Add(stackLost)
	if wasWorking {
		e.rec.Record(r, now, trace.Idle)
	} else {
		e.rec.EndSession(r, now, false)
	}
	// Messages delivered but not yet polled die unread.
	for _, m := range e.net.Poll(r) {
		e.deadLetter(m)
	}
	// Heal the termination ring; a token lost with the corpse — or the
	// initiator role itself — moves to the lowest surviving rank.
	initr := e.initiator()
	initIdle := initr >= 0 &&
		e.ranks[initr].state != rsWorking && e.ranks[initr].state != rsDone
	sends := e.det.RemoveRank(r, initIdle)
	e.forwardTokens(sends)
	if initIdle && len(sends) == 0 {
		// The (possibly new) initiator is already idle but the removal
		// emitted nothing — this happens when the crashed rank was the
		// initiator before any round started. Left alone, the first
		// round would wait for an OnIdle that may never come again, so
		// nudge the initiator now (a no-op if a round is in flight).
		e.forwardTokens(e.det.OnIdle(initr))
	}
	if !e.checkTermination() {
		e.scheduleReprobe()
	}
}

// deadLetter discards a message addressed to a crashed rank. Lost loot
// is booked against the sender, and the sender's in-flight message
// count is resolved so the termination detector does not wait forever
// for a receive that cannot happen.
func (e *engine) deadLetter(m *comm.Message) {
	e.ev.Record(m.From, e.kernel.Now(), trace.EvMsgDrop, m.To, int64(len(m.Nodes)))
	if m.Tag == comm.TagWork {
		e.noteWorkLost(m)
	}
	e.net.Free(m)
}

// noteWorkLost books a work message destroyed by a fault (dropped on a
// link, or dead-lettered at a crashed rank).
func (e *engine) noteWorkLost(m *comm.Message) {
	n := uint64(len(m.Nodes))
	e.lostNodes += n
	e.lostMsgs++
	e.ranks[m.From].lostNodes += n
	e.det.WorkLost(m.From)
	e.met.lostNodes.Add(n)
	e.met.lostMessages.Inc()
	e.scheduleReprobe()
}

// onMessageDrop is the injector's drop observer: it runs inside the
// send path, before the network reclaims the message.
func (e *engine) onMessageDrop(m *comm.Message) {
	e.ev.Record(m.From, e.kernel.Now(), trace.EvMsgDrop, m.To, int64(len(m.Nodes)))
	if m.Tag == comm.TagWork {
		e.noteWorkLost(m)
	}
}

// onMessageDup is the injector's duplication observer.
func (e *engine) onMessageDup(m *comm.Message) {
	e.met.dupMessages.Inc()
}

// initiator returns the termination ring's current initiator: the
// lowest-numbered surviving rank (rank 0 until it crashes).
func (e *engine) initiator() int {
	if e.inj == nil {
		return 0
	}
	for r := range e.ranks {
		if e.ranks[r].state != rsCrashed {
			return r
		}
	}
	return 0
}

// scheduleReprobe arms a deferred check for the lone-survivor endgame.
// When crashes shrink the ring to one rank, no tokens circulate, so a
// WorkLost resolution arriving while the survivor idles would never
// re-trigger the detector on its own. Deferred one tick because loss
// resolution can fire from inside a message send.
func (e *engine) scheduleReprobe() {
	if e.inj == nil || e.detected {
		return
	}
	e.kernel.After(1, e.reprobeFn)
}

func (e *engine) reprobeSurvivor() {
	if e.detected {
		return
	}
	surv, alive := -1, 0
	for r := range e.ranks {
		if e.ranks[r].state != rsCrashed {
			surv = r
			if alive++; alive > 1 {
				return
			}
		}
	}
	if alive != 1 {
		return
	}
	if rk := &e.ranks[surv]; rk.state == rsWorking || rk.state == rsDone {
		return
	}
	e.forwardTokens(e.det.OnIdle(surv))
	e.checkTermination()
}

// deliver is the network's delivery hook, and the only route by which
// a message reaches a rank: it runs at the delivery instant, before the
// mailbox, and decides by the destination's state.
//
// A searching or backing-off rank handles the message on the spot, like
// an MPI process spinning on probe. That is the order the mailbox would
// give, because such a rank's mailbox is always empty: the only way
// into the two idle states is goIdle — at the start, or from quantumEnd
// right after pollMailbox drained it — and every delivery since was
// consumed here. A crashed rank answers nothing: the message is dead-
// lettered, with lost loot resolved against the sender. A done rank
// also handles its traffic at once, behind whatever backlog it was
// retired with (serveFinish can retire a rank in mid-quantum). A
// working rank makes communication progress only between node
// expansions, so the hook declines and the message waits in the
// mailbox — the rank's one backlog — for the poll at quantum end;
// except that under the one-sided protocol a steal request is served
// right away (the "NIC" answers without interrupting the computation).
func (e *engine) deliver(m *comm.Message) bool {
	r := m.To
	switch e.ranks[r].state {
	case rsWorking:
		if e.cfg.Protocol != OneSided || m.Tag != comm.TagStealRequest {
			return false
		}
	case rsCrashed:
		e.deadLetter(m)
		return true
	case rsDone:
		e.pollMailbox(r)
	}
	e.handle(r, m)
	e.net.Free(m)
	return true
}

// deliveryHook returns the hook newEngines installs on the network:
// deliver, or the tests' probe wrapping it when there is one.
func (e *engine) deliveryHook() func(*comm.Message) bool {
	if probe := e.cfg.testDeliveryProbe; probe != nil {
		return func(m *comm.Message) bool { return probe(e, m) }
	}
	return e.deliver
}

// pollMailbox drains and handles the messages rank r's mailbox holds.
// Handling never re-enters a poll of the same rank (sends deliver at
// least 1ns later), so the network's Poll scratch can be walked in
// place and each message freed as soon as it is handled.
func (e *engine) pollMailbox(r int) {
	for _, m := range e.net.Poll(r) {
		e.handle(r, m)
		e.net.Free(m)
	}
}

func (e *engine) handle(r int, m *comm.Message) {
	rk := &e.ranks[r]
	switch m.Tag {
	case comm.TagStealRequest:
		e.handleStealRequest(r, m.From, m.ID)

	case comm.TagWork:
		if rk.state == rsDone {
			// A work message can be in flight past a (Ring-detected)
			// termination; dropping it leaves workSent != workReceived,
			// which flags the run as premature. Under fault injection
			// the loot still counts as lost nodes so that
			// completed + lost == generated holds even then — but not
			// as a lost message, which would mask the prematurity.
			if e.inj != nil {
				n := uint64(len(m.Nodes))
				e.lostNodes += n
				e.ranks[m.From].lostNodes += n
			}
			return
		}
		now := e.kernel.Now()
		// Work is always accepted — even a reply to an aborted request
		// (the nodes would otherwise be lost). Safra's counters must see
		// every accepted transfer.
		e.workReceived++
		e.det.WorkReceived(r)
		e.sel.Observe(r, m.From, true)
		rk.successes++
		rk.consecFails = 0
		rk.consecTimeouts = 0
		rk.lastAborted = false
		rk.backoff = 0
		if e.inj != nil {
			delete(rk.timeouts, m.From)
			if rk.recovering {
				rk.recovering = false
				e.recoveries++
				d := now.Sub(rk.recoverStart)
				e.recoverTotal += d
				e.met.recoveryLatency.Observe(int64(d))
			}
		}
		// Work lineage: the loot's migration depth becomes the rank's
		// (also when banking a late reply below — the banked nodes mix
		// into the stack, and the freshest transfer wins).
		rk.lineage = int32(m.Lineage)
		e.noteMigration(m.Lineage)
		e.ev.Record(r, now, trace.EvWorkRecv, m.From, int64(len(m.Nodes)))
		e.met.stealSuccess.Inc()
		switch rk.state {
		case rsSearching, rsBackoff:
			if rk.state == rsSearching && m.ID == rk.reqID {
				rk.searchWait += now.Sub(rk.waitStart)
				e.met.stealLatency.Observe(int64(now.Sub(rk.waitStart)))
			}
			rk.pendingVictim = -1
			e.rec.SessionAttempt(r, false)
			e.rec.EndSession(r, now, true)
			e.met.session.Observe(int64(now.Sub(rk.idleSince)))
			e.rec.Record(r, now, trace.Active)
			rk.stack.Acquire(m.Nodes)
			e.putLoot(m)
			e.startQuantum(r)
		case rsWorking:
			// Late reply to an aborted request: just bank the nodes.
			rk.stack.Acquire(m.Nodes)
			e.putLoot(m)
		}

	case comm.TagNoWork:
		if rk.state == rsDone {
			return
		}
		if rk.state != rsSearching || m.ID != rk.reqID {
			// Stale reply to an aborted request.
			return
		}
		now := e.kernel.Now()
		rk.searchWait += now.Sub(rk.waitStart)
		rk.fails++
		rk.consecFails++
		rk.consecTimeouts = 0
		rk.lastAborted = false
		rk.pendingVictim = -1
		if e.inj != nil {
			// The victim answered: it is alive, whatever the timeout
			// tally said.
			delete(rk.timeouts, m.From)
		}
		e.ev.Record(r, now, trace.EvNoWorkRecv, m.From, int64(m.ID))
		e.met.stealFail.Inc()
		e.met.stealLatency.Observe(int64(now.Sub(rk.waitStart)))
		e.sel.Observe(r, m.From, false)
		e.rec.SessionAttempt(r, true)
		e.retryOrBackoff(r)

	case comm.TagToken:
		e.ev.Record(r, e.kernel.Now(), trace.EvTokenRecv, m.From, 0)
		e.met.tokenHops.Inc()
		idle := rk.state != rsWorking
		e.forwardTokens(e.det.OnToken(r, m.Token, idle))
		e.checkTermination()

	case comm.TagTerminate:
		e.finishRank(r, e.kernel.Now())

	default:
		panic(fmt.Sprintf("core: unexpected tag %v", m.Tag))
	}
}

// handleStealRequest answers thief's request against rank v's stack.
func (e *engine) handleStealRequest(v, thief int, id uint64) {
	rk := &e.ranks[v]
	now := e.kernel.Now()
	e.ev.Record(v, now, trace.EvStealRecv, thief, int64(id))
	if rk.state == rsDone {
		// Termination already detected; the thief will receive its own
		// terminate message. Answer no-work to be safe.
		e.ev.Record(v, now, trace.EvNoWorkSend, thief, int64(id))
		e.met.links.Inc(v, thief)
		e.net.SendID(v, thief, comm.TagNoWork, id, 16)
		return
	}
	// Answering costs the victim compute time whether or not it has
	// work to give; the flood of failed steals the paper measures
	// (Figure 7) slows victims down through exactly this term. Idle
	// victims answer from otherwise-wasted time, and under the
	// one-sided protocol the network hardware serves the request, so
	// only working two-sided ranks accrue the delay.
	twoSided := e.cfg.Protocol == TwoSided
	if twoSided && rk.state == rsWorking {
		rk.extraDelay += e.cfg.HandleRequestCost
	}
	avail := rk.stack.StealableChunks()
	if avail == 0 {
		e.ev.Record(v, now, trace.EvNoWorkSend, thief, int64(id))
		e.met.links.Inc(v, thief)
		e.net.SendID(v, thief, comm.TagNoWork, id, 16)
		return
	}
	want := 1
	if e.cfg.Steal == StealHalf {
		want = (avail + 1) / 2
	}
	loot, _ := rk.stack.StealInto(e.getLoot(), want)
	e.det.WorkSent(v)
	e.workSent++
	if twoSided {
		rk.extraDelay += e.cfg.StealResponseCost
	}
	e.ev.Record(v, now, trace.EvWorkSend, thief, int64(len(loot)))
	e.met.links.Inc(v, thief)
	e.met.chunkNodes.Observe(int64(len(loot)))
	e.net.SendNodes(v, thief, id, loot, int(rk.lineage)+1, len(loot)*uts.NodeBytes)
}

// getLoot returns an empty buffer for a steal reply's nodes: the one
// most recently handed back, or nil — StealInto then allocates it —
// while the list is empty.
func (e *engine) getLoot() []uts.Node {
	last := len(e.loot) - 1
	if last < 0 {
		return nil
	}
	buf := e.loot[last]
	e.loot[last] = nil
	e.loot = e.loot[:last]
	return buf
}

// putLoot takes back the buffer of a work reply whose nodes the thief
// has copied onto its stack. The message gives it up here, before
// net.Free: nothing may read m.Nodes afterwards, because the next steal
// this engine answers writes into the same array.
func (e *engine) putLoot(m *comm.Message) {
	e.loot = append(e.loot, m.Nodes[:0])
	m.Nodes = nil
}

// noteMigration tallies one accepted transfer at the given migration
// depth, growing the histogram on demand.
func (e *engine) noteMigration(depth int) {
	if depth < 0 {
		depth = 0
	}
	for len(e.migDepths) <= depth {
		e.migDepths = append(e.migDepths, 0)
	}
	e.migDepths[depth]++
}

// retryOrBackoff continues an idle rank's search, inserting a pause
// once consecutive failures pass the backoff threshold.
func (e *engine) retryOrBackoff(r int) {
	rk := &e.ranks[r]
	b := e.backoffCfg
	if b.Threshold < 0 || int(rk.consecFails) < b.Threshold {
		e.sendSteal(r)
		return
	}
	if rk.backoff == 0 {
		rk.backoff = b.Base
	} else if rk.backoff < b.Max {
		rk.backoff *= 2
		if rk.backoff > b.Max {
			rk.backoff = b.Max
		}
	}
	rk.state = rsBackoff
	e.kernel.AfterArg(rk.backoff, e.backoffEndFn, &e.rankID[r])
}

// forwardTokens transmits detector-emitted tokens on the ring.
func (e *engine) forwardTokens(sends []term.Send) {
	for _, s := range sends {
		now := e.kernel.Now()
		if s.Regen {
			// The previous token died with a crashed rank (or the rank
			// was the initiator itself); the healed ring starts over.
			e.tokenRegens++
			e.ev.Record(s.From, now, trace.EvTokenRegen, s.To, int64(s.Token.Round))
			e.met.tokenRegens.Inc()
		}
		e.ev.Record(s.From, now, trace.EvTokenSend, s.To, 0)
		e.met.links.Inc(s.From, s.To)
		e.net.SendToken(s.From, s.To, s.Token, term.TokenBytes)
	}
}

// checkTermination broadcasts termination once the detector fires.
// It returns true if termination has been detected.
func (e *engine) checkTermination() bool {
	if !e.det.Terminated() {
		return e.detected
	}
	if e.detected {
		return true
	}
	e.markDetected(e.kernel.Now())
	// Detection happens at the ring initiator — rank 0 for both
	// detectors unless crashes moved the role to a higher survivor.
	initr := e.initiator()
	e.finishRank(initr, e.detectedAt)
	for r := 0; r < e.cfg.Ranks; r++ {
		if r == initr || e.ranks[r].state == rsCrashed {
			continue
		}
		e.net.SendID(initr, r, comm.TagTerminate, 0, 8)
	}
	return true
}

// markDetected records the verdict that ends the run, on every engine
// of it. In a sharded run only a serialized window or a barrier decides
// (the serialization policy guarantees it), so this single-threaded
// broadcast to the sibling shard engines is race-free; they observe it
// in later windows through the barrier's happens-before edge.
func (e *engine) markDetected(at sim.Time) {
	e.detected, e.detectedAt = true, at
	if e.par != nil {
		for _, o := range e.par.engines {
			o.detected, o.detectedAt = true, at
		}
	}
}

// finishRank retires rank r at instant at — termination reached it, or
// the serving run finished: it is marked done, its trace state closed
// and its pending quantum cancelled. Event handles are arena slots of
// the kernel that issued them, so the cancel goes through the owning
// engine's kernel — another shard's would poison an unrelated slot.
func (e *engine) finishRank(r int, at sim.Time) {
	rk := &e.ranks[r]
	if rk.state == rsDone || rk.state == rsCrashed {
		return
	}
	e.ev.Record(r, at, trace.EvTerminate, -1, 0)
	if rk.state != rsWorking {
		e.rec.EndSession(r, at, false)
	}
	e.owner(r).kernel.Cancel(rk.quantum) // no-op when no quantum is pending
	rk.quantum = sim.Event{}
	rk.state = rsDone
}

// sumCounters totals the tallies and the traffic of a run's engines.
func sumCounters(engines []*engine) (counters, comm.Stats) {
	var t counters
	var cs comm.Stats
	for _, e := range engines {
		t.workSent += e.workSent
		t.workReceived += e.workReceived
		t.lostMsgs += e.lostMsgs
		for len(t.migDepths) < len(e.migDepths) {
			t.migDepths = append(t.migDepths, 0)
		}
		for d, c := range e.migDepths {
			t.migDepths[d] += c
		}
		t.crashes += e.crashes
		t.lostNodes += e.lostNodes
		t.tokenRegens += e.tokenRegens
		t.recoveries += e.recoveries
		t.recoverTotal += e.recoverTotal
		st := e.net.Stats()
		for tag := range st.Sent {
			cs.Sent[tag] += st.Sent[tag]
			cs.Bytes[tag] += st.Bytes[tag]
			cs.Received[tag] += st.Received[tag]
			cs.Dropped[tag] += st.Dropped[tag]
			cs.Duplicated[tag] += st.Duplicated[tag]
		}
	}
	return t, cs
}

// result assembles the Result after the kernel(s) drained. The per-rank
// state it walks is shared across shard engines; only the counters, the
// traffic and the link counts still to be folded are per engine.
func result(engines []*engine) (*Result, error) {
	for _, e := range engines {
		e.met.links.fold()
	}
	e := engines[0]
	if !e.detected {
		return nil, fmt.Errorf("core: event queue drained without termination detection")
	}
	t, cs := sumCounters(engines)
	res := &Result{
		Ranks:     e.cfg.Ranks,
		Placement: e.cfg.Placement,
		Selector:  e.sel.Name(),
		Steal:     e.cfg.Steal,
		Detector:  e.det.Name(),
		Makespan:  sim.Duration(e.detectedAt),
		Comm:      cs,
	}
	var totalSearch sim.Duration
	var remaining int
	var totalUnits uint64
	res.MinRankNodes = ^uint64(0)
	for i := range e.ranks {
		rk := &e.ranks[i]
		res.Nodes += rk.nodes
		res.Leaves += rk.leaves
		res.NodesGenerated += rk.generated
		totalUnits += rk.units
		if rk.nodes > res.MaxRankNodes {
			res.MaxRankNodes = rk.nodes
		}
		if rk.nodes < res.MinRankNodes {
			res.MinRankNodes = rk.nodes
		}
		if rk.maxDepth > res.MaxDepth {
			res.MaxDepth = rk.maxDepth
		}
		res.StealRequests += rk.requests
		res.FailedSteals += rk.fails
		res.SuccessfulSteals += rk.successes
		res.AbortedSteals += rk.aborted
		res.Sessions += rk.sessions
		totalSearch += rk.searchWait
		remaining += rk.stack.Len()
		res.ChunksTransferred += rk.stack.Stats().ChunksAcquired
	}
	res.MeanSearchTime = totalSearch / sim.Duration(e.cfg.Ranks)
	res.SequentialTime = sim.Duration(totalUnits) * e.cfg.NodeCost
	if e.dag != nil {
		res.SequentialTime = e.dag.g.TotalCost
	}
	if res.Makespan > 0 {
		res.Speedup = float64(res.SequentialTime) / float64(res.Makespan)
		res.Efficiency = res.Speedup / float64(e.cfg.Ranks)
	}
	if res.Nodes > 0 {
		mean := float64(res.Nodes) / float64(e.cfg.Ranks)
		res.Imbalance = float64(res.MaxRankNodes) / mean
	}
	res.MigrationDepths = t.migDepths
	res.MaxMigrationDepth = len(t.migDepths) - 1
	if res.MaxMigrationDepth < 0 {
		res.MaxMigrationDepth = 0
	}
	res.TerminationRounds = e.det.Rounds()
	res.Premature = remaining > 0 || t.workSent != t.workReceived+t.lostMsgs
	if e.inj != nil {
		res.CrashedRanks = t.crashes
		res.LostNodes = t.lostNodes
		res.LostMessages = t.lostMsgs
		res.TokenRegens = t.tokenRegens
		res.Recoveries = t.recoveries
		if t.recoveries > 0 {
			res.MeanRecoveryLatency = t.recoverTotal / sim.Duration(t.recoveries)
		}
		res.PerRankFaults = make([]RankFault, e.cfg.Ranks)
		for i := range e.ranks {
			rk := &e.ranks[i]
			res.PerRankFaults[i] = RankFault{
				Rank:       i,
				Crashed:    rk.state == rsCrashed,
				CrashedAt:  rk.crashedAt,
				LostNodes:  rk.lostNodes,
				Timeouts:   rk.aborted,
				Blacklists: rk.blacklists,
			}
		}
	}
	if e.sv != nil {
		res.Serve = e.sv.sched.Stats(e.sv.doneAt, e.detectedAt)
	}
	if e.rec != nil {
		res.Trace = e.rec.Finish(e.detectedAt)
		if d, ok := res.Trace.MeanSessionDuration(); ok {
			res.MeanSessionDuration = d
		}
		e.ev.Attach(res.Trace)
	}
	return res, nil
}
