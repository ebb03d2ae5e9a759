package core

import (
	"fmt"
	"slices"
	"sync"
	"unsafe"

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

// rank is the per-rank engine state every rank needs, one element of
// the engine's rank slab. The layout is a cache-line budget (DESIGN.md
// §10, TestRankHotLayout): the first 64 bytes are everything a thief
// reads and writes between a reply and its next request, the second
// line the rest of its steal statistics and its worker. The struct is
// two lines, so every element of the slab starts on one. A rank's
// scheduling state is not here but in the engine's state slab, one
// byte a rank, which is all a message's delivery and an idle victim's
// answer read of the rank it reaches. What only a rank holding work
// touches is its worker; what only a fault plan touches is its
// rankFault.
type rank struct {
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

	// The rest of the steal statistics.
	successes, aborted uint64
	idleSince          sim.Time // start of the current work-discovery session
	sessions           uint64
	sessionTime        sim.Duration // summed length of the closed sessions
	// stealTimer is the armed steal timeout, if any: sendSteal cancels
	// the superseded request's timer before arming the next, so the one
	// that fires always belongs to the current request.
	stealTimer sim.Event
	// w is the rank's work state, nil until it first holds a node
	// (engine.work); a victim without one has nothing to give.
	w *worker
	_ [8]byte
}

// worker is the state of a rank that holds, or has held, work. Ranks
// take theirs from the engine's pages of workerPage (engine.work), so a
// run pays for the ranks that work, not for every thief. The worker is
// four whole lines (TestRankHotLayout), so a page of them is
// line-aligned: the stack's header and counts — what a steal request
// reads at a working victim, and all a push or a pop needs to reach its
// node — are the first, and what a quantum's start and end touch besides
// completes the second.
type worker struct {
	stack workstack.Stack

	// quantum is the pending quantum-end event, if any (zero when none).
	quantum sim.Event
	// extraDelay accumulates steal-response packaging costs that push
	// the next quantum start.
	extraDelay sim.Duration
	// In-progress node expansion, resumable across quanta so that a
	// high-fanout node (e.g. a root with thousands of children) does
	// not create a polling blackout. The node being expanded is staged
	// in gen; expNext < expTotal while children remain to generate.
	expNext, expTotal int
	gen               uts.ChildGen

	maxDepth int32
	// lineage is the migration depth of the work the rank currently
	// holds: 0 for rank 0's root work, and d+1 after accepting a
	// transfer whose loot had depth d. Victims stamp outgoing loot with
	// lineage+1, so steal chains i→j→k are recoverable from transfers.
	lineage int32
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
	_         [40]byte
}

// workerPage is how many workers one allocation holds.
const workerPage = 64

// runStore is what a run allocates, kept for the next run: the kernel
// of a sequential run, the recorder, the rank and state slabs and, per
// engine, the worker pages (used of them handed out) and the segment
// pool of their stacks. It is the only storage that outlives a run.
type runStore struct {
	kernel *sim.Kernel // nil until a sequential run needs one
	rec    obs.Recorder
	ranks  []rank
	states []rankState
	work   []workStore // one per engine
}

type workStore struct {
	pages [][]worker
	used  int
	pool  workstack.Pool
}

// runStores is a LIFO of released stores, not a sync.Pool: the garbage
// collector empties a sync.Pool, so whether a run found warm storage
// would depend on GC timing, and a run's allocation volume must depend
// on the sequence of runs alone. It keeps up to maxRunStores stores of
// at most runStoreBytes each, kernel and recorder included (the
// repository benchmark's largest is about 4.4 MB).
var runStores struct {
	mu   sync.Mutex
	free []*runStore
}

const maxRunStores, runStoreBytes = 8, 16 << 20

func getRunStore() (st *runStore) {
	runStores.mu.Lock()
	defer runStores.mu.Unlock()
	if n := len(runStores.free) - 1; n >= 0 {
		st, runStores.free[n], runStores.free = runStores.free[n], nil, runStores.free[:n]
		return st
	}
	return new(runStore)
}

// putRunStore zeroes st, segments back in their pools and the kernel
// reset, and keeps it. The recorder is empty once Finish ran, and the
// next run's Reset empties what an aborted run left in it.
func putRunStore(st *runStore) {
	for i := range st.ranks {
		if w := st.ranks[i].w; w != nil {
			w.stack.Clear()
			*w = worker{}
		}
	}
	clear(st.ranks)
	clear(st.states)
	bytes := cap(st.ranks)*int(unsafe.Sizeof(rank{})) + cap(st.states) + st.rec.Bytes()
	if st.kernel != nil {
		st.kernel.Reset()
		bytes += st.kernel.Bytes()
	}
	for i, ws := range st.work {
		st.work[i].used = 0
		bytes += len(ws.pages)*int(unsafe.Sizeof([workerPage]worker{})) + ws.pool.Bytes()
	}
	runStores.mu.Lock()
	defer runStores.mu.Unlock()
	if len(runStores.free) < maxRunStores && bytes <= runStoreBytes {
		runStores.free = append(runStores.free, st)
	}
}

// rankFault is a rank's fault-injection state, one element of a slab
// that exists only under a fault plan; the maps are allocated by the
// first timeout that writes them.
type rankFault struct {
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
	rec    *obs.Recorder // activity trace and event logs; nil when disabled
	ranks  []rank
	// states[r] is rank r's scheduling state, the rank's one copy.
	states []rankState
	// faults is the per-rank fault state, nil without a fault plan.
	faults []rankFault
	// ws is the engine's share of the run store, where its ranks' workers live.
	ws *workStore

	// quantumEndFn, backoffEndFn and stealTimeoutFn are the shared
	// per-rank timer callbacks: a timer carries its rank in its event's
	// payload (rankTimer, timerRank), so a quantum, backoff pause or
	// steal timeout allocates no closure.
	quantumEndFn   func(any)
	backoffEndFn   func(any)
	stealTimeoutFn func(any)

	// loot is the free list of loot buffers (getLoot, putLoot): a victim
	// packs a steal reply into one and the thief hands it back once the
	// nodes are on its own stack, so a steady-state steal allocates
	// nothing. Per engine — in a sharded run a buffer taken from the
	// victim's shard list ends up on the thief's, and each list is
	// touched by its own shard's goroutine only.
	loot [][]uts.Node

	// Fault injection. inj is nil for fault-free runs, keeping every
	// hot path on its existing branch-free course.
	inj *fault.Injector

	counters
	detectedAt sim.Time
	detected   bool

	// w is what the ranks work on (workload.go), shared by the shard
	// engines of a sharded run.
	w workload

	// par links the engine into a sharded run (engine_par.go): nil for
	// sequential runs, where every field above is engine-global. In a
	// sharded run each shard owns one engine; ranks, det, sel and rec
	// are shared across the shard engines while the counters above are
	// per shard.
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
	// (Figure 10); zero if no rank ever went idle. A rank's last session
	// ends when the application terminates: at Makespan on every rank,
	// however late the terminate broadcast reaches it, or if it never
	// does.
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

	// Trace is the activity trace, with the event log at the events
	// level, when Config.CollectTrace or CollectEvents was set.
	Trace *trace.Trace

	// Serve is the serving summary, when Config.Serve was set (nil
	// otherwise): per-tenant arrival/admission/completion counts,
	// sojourn percentiles, goodput and the Jain fairness index.
	Serve *serve.Stats

	// Graph is the task-graph summary, when Config.Graph was set.
	Graph *GraphStats

	// Par is the parallel-kernel window ledger of a sharded run with
	// Config.ParProfile set (nil otherwise). The ledger is excluded from
	// every determinism artifact the engine emits — the golden dumps
	// and observer-freedom comparisons never see it — but is itself
	// bit-deterministic for a fixed (Config, Shards).
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
// identical results. It checks cfg before building anything.
func Run(cfg Config) (*Result, error) { return run(cfg, result) }

// run is Run with the step that reads the drained engines as a
// parameter; Run passes result.
func run(cfg Config, finish func([]*engine) (*Result, error)) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	job, err := topology.NewJob(topology.KComputer(), cfg.Ranks, cfg.Placement)
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(&cfg)
	if err != nil {
		return nil, err
	}
	st := getRunStore()
	defer putRunStore(st)
	if cfg.Shards > 1 {
		return runSharded(cfg, job, w, st, finish)
	}
	if st.kernel == nil {
		st.kernel = sim.NewKernel()
	}
	k := st.kernel
	engines, err := newEngines(cfg, job, []*sim.Kernel{k}, nil, w, st)
	if err != nil {
		return nil, err
	}
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("core: simulation aborted at virtual %v after %d events: %w",
			k.Now(), k.Dispatched(), err)
	}
	return finish(engines)
}

// newEngines is the one constructor: it builds the engine of a
// sequential run (one kernel, ps nil) or the shard engines of a sharded
// one (a kernel per shard, ps their coordinator state), pre-schedules
// every planned crash and lets w seed the run, so the caller only has
// to run the kernel(s). The engines share the workload, detector,
// selector, recorder, injector, fault slab and st's rank slab; each
// owns its kernel, its network, its timer callbacks, its counters and
// its workStore. A rank's first idle transition goes
// through the engine owning that rank; crashes and job arrivals happen
// in sequential runs only (Config.Validate), on the one engine.
func newEngines(cfg Config, job *topology.Job, kernels []*sim.Kernel, ps *parShared, w workload, st *runStore) ([]*engine, error) {
	inj, err := fault.Compile(cfg.Faults, cfg.Ranks, kernels[0])
	if err != nil {
		return nil, err
	}
	det := w.detector(cfg)
	var rec *obs.Recorder
	if cfg.CollectEvents || cfg.CollectTrace {
		rec = st.rec.Reset(cfg.Ranks, cfg.EventBuffer, cfg.CollectEvents)
	}
	st.ranks = slices.Grow(st.ranks[:0], cfg.Ranks)[:cfg.Ranks]
	st.states = slices.Grow(st.states[:0], cfg.Ranks)[:cfg.Ranks]
	ranks := st.ranks
	for i := range ranks {
		ranks[i].pendingVictim = -1
	}
	st.work = append(st.work, make([]workStore, max(0, len(kernels)-len(st.work)))...)
	var faults []rankFault
	if inj != nil {
		faults = make([]rankFault, cfg.Ranks)
		for i := range faults {
			faults[i].crashedAt = -1
		}
	}

	sel := cfg.Selector(job, cfg.Seed)
	engines := make([]*engine, len(kernels))
	for s, k := range kernels {
		k.SetTimeLimit(cfg.maxVirtualTime)
		e := &engine{
			cfg:    cfg,
			kernel: k,
			net:    comm.New(k, job, cfg.Latency),
			det:    det,
			sel:    sel,
			rec:    rec,
			ranks:  ranks,
			states: st.states,
			faults: faults,
			ws:     &st.work[s],
			inj:    inj,
			w:      w,
			par:    ps,
		}
		e.bindTimers()
		e.net.SetDeliveryHook(e.deliveryHook())
		if ps != nil {
			e.net.SetRouter(ps.router(s))
		}
		engines[s] = e
	}
	e0 := engines[0]
	if ps != nil {
		ps.engines = engines
		ps.da, _ = det.(term.DecisionAware)
	}
	// Crash-only plans skip the interposer entirely; link faults and
	// straggler send multipliers need it on the send path.
	if inj.NeedsInterposer() {
		inj.OnDrop = e0.onMessageDrop
		e0.net.SetInterposer(inj)
	}
	if inj != nil {
		for _, c := range cfg.Faults.SortedCrashes() {
			r := c.Rank
			e0.kernel.At(c.At, func() { e0.crashRank(r) })
		}
	}
	w.seed(e0)
	return engines, nil
}

// idleFrom starts ranks r0 and up idle: each opens a discovery session
// and sends its first steal request.
func (e *engine) idleFrom(r0 int) {
	for r := r0; r < e.cfg.Ranks; r++ {
		e.owner(r).goIdle(r)
	}
}

// rankTimer schedules the per-rank timer fn for rank r, d from now,
// with r in the event's payload.
func (e *engine) rankTimer(d sim.Duration, fn func(any), r int) sim.Event {
	return e.kernel.AfterPayload(d, fn, nil, sim.Payload{A: uint64(r)})
}

// timerRank returns the rank of the per-rank timer being dispatched.
func (e *engine) timerRank() int { return int(e.kernel.Payload().A) }

// bindTimers builds the engine's shared per-rank timer callbacks.
func (e *engine) bindTimers() {
	e.quantumEndFn = func(any) { e.quantumEnd(e.timerRank()) }
	e.backoffEndFn = func(any) {
		if r := e.timerRank(); e.states[r] == rsBackoff {
			e.sendSteal(r)
		}
	}
	e.stealTimeoutFn = func(any) {
		r := e.timerRank()
		e.ranks[r].stealTimer = sim.Event{}
		e.abortSteal(r)
	}
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

// work returns rank r's worker, which r takes from the engine's pages —
// a new page when they are used up — the first time it is about to hold
// a node: rank 0's root, accepted loot, a served root or a graph task.
// Only the engine owning r calls it.
func (e *engine) work(r int) *worker {
	rk := &e.ranks[r]
	if rk.w == nil {
		ws := e.ws
		if ws.used == len(ws.pages)*workerPage {
			ws.pages = append(ws.pages, make([]worker, workerPage))
		}
		rk.w = &ws.pages[ws.used/workerPage][ws.used%workerPage]
		ws.used++
		rk.w.stack.Init(e.cfg.ChunkSize, &ws.pool)
	}
	return rk.w
}

// startQuantum runs rank r's next quantum — whatever the workload
// executes — and schedules the quantum-end event after the virtual time
// it costs (plus any accumulated steal-response overhead). The stack
// mutation happens eagerly; it becomes observable to thieves at quantum
// end, which is when the rank polls its mailbox — matching a two-sided
// MPI process that only makes communication progress between node
// expansions.
func (e *engine) startQuantum(r int) {
	rk := &e.ranks[r]
	w := rk.w // a rank starts a quantum on work it holds
	e.states[r] = rsWorking
	e.rec.Record(r, e.kernel.Now(), trace.EvQuantumStart, -1, int64(w.stack.Len()))
	compute, stall := e.w.execute(e, r)
	if e.inj != nil {
		compute = e.inj.ScaleCompute(r, compute)
	}
	w.quantum = e.rankTimer(compute+stall+w.extraDelay, e.quantumEndFn, r)
	w.extraDelay = 0
}

func (e *engine) quantumEnd(r int) {
	rk := &e.ranks[r]
	w := rk.w
	w.quantum = sim.Event{}
	if e.states[r] == rsDone || e.states[r] == rsCrashed {
		return
	}
	e.w.settle(e, r)
	e.rec.Record(r, e.kernel.Now(), trace.EvQuantumEnd, -1, int64(w.units))
	e.pollMailbox(r)
	if e.states[r] == rsDone {
		return
	}
	if !w.stack.Empty() || w.expNext < w.expTotal {
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
	e.states[r] = rsBackoff // idle until sendSteal marks it searching
	if rk.w != nil {
		rk.w.extraDelay = 0 // request-handling debt is moot once idle
	}
	rk.idleSince = now
	e.rec.Mark(r, now, trace.Idle)
	rk.sessions++
	e.forwardTokens(e.det.OnIdle(r))
	if e.checkTermination() {
		return
	}
	if e.cfg.Ranks == 1 {
		// No one to steal from; wait for the detector (which must have
		// fired above for a single rank).
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
	e.states[r] = rsSearching
	if rk.lastAborted {
		rk.lastAborted = false
		e.rec.Record(r, rk.waitStart, trace.EvStealRetry, v, int64(rk.consecTimeouts))
	}
	e.rec.Record(r, rk.waitStart, trace.EvStealSend, v, int64(id))
	e.net.SendID(r, v, comm.TagStealRequest, id, 16)
	if e.cfg.StealTimeout > 0 {
		e.kernel.Cancel(rk.stealTimer)
		rk.stealTimer = e.rankTimer(e.cfg.StealTimeout, e.stealTimeoutFn, r)
	}
}

// skipBlacklisted re-rolls the victim choice past temporarily
// blacklisted ranks (bounded, so a thief surrounded by corpses still
// sends — and times out — rather than spinning).
func (e *engine) skipBlacklisted(r, v int) int {
	f := &e.faults[r]
	if len(f.blackUntil) == 0 {
		return v
	}
	now := e.kernel.Now()
	for tries := 0; tries < 8; tries++ {
		until, ok := f.blackUntil[v]
		if !ok {
			return v
		}
		if now >= until {
			delete(f.blackUntil, v)
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
	if e.states[r] != rsSearching {
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
		f := &e.faults[r]
		if !rk.recovering {
			rk.recovering = true
			f.recoverStart = rk.waitStart
		}
		if f.timeouts == nil {
			f.timeouts = make(map[int]int)
		}
		f.timeouts[v]++
		if f.timeouts[v] >= blacklistAfter {
			delete(f.timeouts, v)
			if f.blackUntil == nil {
				f.blackUntil = make(map[int]sim.Time)
			}
			f.blackUntil[v] = now.Add(blacklistFor)
			f.blacklists++
		}
	}
	e.rec.Record(r, now, trace.EvStealAbort, v, int64(id))
	e.sel.Observe(r, v, false)
	e.retryOrBackoff(r)
}

// crashRank fail-stops rank r at the current virtual time: its stack,
// its quantum's work and its queued mailbox die with it, the
// termination ring heals around the corpse (regenerating any token it
// held), and every later delivery to it is discarded on arrival.
func (e *engine) crashRank(r int) {
	if e.states[r] == rsDone || e.states[r] == rsCrashed {
		return // termination beat the crash; nothing left to kill
	}
	now := e.kernel.Now()
	wasWorking := e.states[r] == rsWorking
	w := e.work(r) // a crash is rare: an idle rank may take an empty worker
	stack := w.stack.Drop(e.getLoot())
	stackLost := e.destroy(r, r, stack)
	e.loot = append(e.loot, stack[:0])
	w.expNext, w.expTotal = 0, 0 // staged children were never generated
	e.faults[r].crashedAt = now
	e.crashes++
	e.kernel.Cancel(w.quantum)
	w.quantum = sim.Event{}
	e.states[r] = rsCrashed
	e.rec.Record(r, now, trace.EvCrash, -1, int64(stackLost))
	if wasWorking {
		e.rec.Mark(r, now, trace.Idle) // a crash opens no session
	} else {
		e.endSession(r, now)
	}
	// Messages delivered but not yet polled die unread.
	for _, m := range e.net.Poll(r) {
		e.deadLetter(m)
	}
	// Heal the termination ring; a token lost with the corpse — or the
	// initiator role itself — moves to the lowest surviving rank.
	e.forwardTokens(e.det.RemoveRank(r))
	e.checkTermination()
}

// deadLetter discards a message addressed to a crashed rank. Lost loot
// is booked against the sender, and the sender's in-flight message
// count is resolved so the termination detector does not wait forever
// for a receive that cannot happen.
func (e *engine) deadLetter(m *comm.Message) {
	e.lose(m.Tag, m.From, m.To, m.Nodes)
	e.net.Free(m)
}

// lose books a message a fault destroyed — dropped on a link, or
// dead-lettered at a crashed rank — and, for a work message, its loot.
func (e *engine) lose(tag comm.Tag, from, to int, loot []uts.Node) {
	e.rec.Record(from, e.kernel.Now(), trace.EvMsgDrop, to, int64(len(loot)))
	if tag != comm.TagWork {
		return
	}
	e.destroy(from, -1, loot)
	e.lostMsgs++
	if e.det.Terminated() {
		return
	}
	e.det.WorkLost(from)
	if e.det.Terminated() {
		// A lone idle survivor decided on the loss. The loss may have
		// been resolved inside a send, so the broadcast waits 1 ns.
		e.kernel.After(1, func() { e.checkTermination() })
	}
}

// destroy books nodes a fault destroyed (and, when crashed >= 0, the
// work that rank's cancelled quantum had in hand) against owner, in the
// loss ledger and in the workload's terms, and returns how many died.
func (e *engine) destroy(owner, crashed int, nodes []uts.Node) uint64 {
	n := uint64(len(nodes)) + e.w.lose(e, crashed, nodes)
	e.lostNodes += n
	e.faults[owner].lostNodes += n
	return n
}

// onMessageDrop is the injector's drop observer: it runs inside the
// send path, before the network reclaims the body.
func (e *engine) onMessageDrop(h comm.Header, body *comm.Message) {
	tag, from, to, _ := h.Unpack()
	var loot []uts.Node
	if body != nil {
		loot = body.Nodes
	}
	e.lose(tag, from, to, loot)
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
// retired with (a serving run's finish can retire one mid-quantum). A
// working rank makes communication progress only between node
// expansions, so the hook declines and the message waits in the
// mailbox — the rank's one backlog — for the poll at quantum end;
// except that under the one-sided protocol a steal request is served
// right away (the "NIC" answers without interrupting the computation).
func (e *engine) deliver(m *comm.Message) bool {
	r := m.To
	switch e.states[r] {
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
// Handling never re-enters a poll (sends deliver at least 1ns later),
// so the network's one Poll scratch can be walked in place and each
// message freed as soon as it is handled.
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
		if e.states[r] == rsDone {
			// A work message can be in flight past a (Ring-detected)
			// termination; dropping it leaves workSent != workReceived,
			// which flags the run as premature. Under fault injection
			// the loot still counts as lost nodes so that
			// completed + lost == generated holds even then — but not
			// as a lost message, which would mask the prematurity.
			if e.inj != nil {
				e.destroy(m.From, -1, m.Nodes)
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
			delete(e.faults[r].timeouts, m.From)
			if rk.recovering {
				rk.recovering = false
				e.recoveries++
				e.recoverTotal += now.Sub(e.faults[r].recoverStart)
			}
		}
		// Work lineage: the loot's migration depth becomes the rank's
		// (also when banking a late reply below — the banked nodes mix
		// into the stack, and the freshest transfer wins).
		w := e.work(r)
		w.lineage = int32(m.Lineage)
		e.noteMigration(m.Lineage)
		// Work that answers no outstanding request is logged apart, so
		// steal pairing closes only the round trips counted here.
		answers := e.states[r] == rsSearching && m.ID == rk.reqID
		kind := trace.EvWorkLate
		if answers {
			kind = trace.EvWorkRecv
		}
		e.rec.Record(r, now, kind, m.From, int64(len(m.Nodes)))
		w.stack.Acquire(m.Nodes)
		e.putLoot(m)
		if e.states[r] == rsWorking {
			return // a late reply to an aborted request: the nodes are banked
		}
		if answers {
			rk.searchWait += now.Sub(rk.waitStart)
		}
		e.resume(r)

	case comm.TagNoWork:
		if e.states[r] == rsDone {
			return
		}
		if e.states[r] != rsSearching || m.ID != rk.reqID {
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
			delete(e.faults[r].timeouts, m.From)
		}
		e.rec.Record(r, now, trace.EvNoWorkRecv, m.From, int64(m.ID))
		e.sel.Observe(r, m.From, false)
		e.retryOrBackoff(r)

	case comm.TagToken:
		e.rec.Record(r, e.kernel.Now(), trace.EvTokenRecv, m.From, 0)
		e.forwardTokens(e.det.OnToken(r, m.Token))
		e.checkTermination()

	case comm.TagTerminate:
		e.finishRank(r, e.kernel.Now())

	default:
		panic(fmt.Sprintf("core: unexpected tag %v", m.Tag))
	}
}

// resume starts idle rank r on what just reached its stack — loot, or a
// served job's root: its discovery session ends. A pending steal reply
// becomes stale: NoWork fails the reqID check and loot is banked. A
// rank handed work at instant 0 reads in the trace as one that started
// with work, so its zero-length session is not counted.
func (e *engine) resume(r int) {
	now := e.kernel.Now()
	e.ranks[r].pendingVictim = -1
	if now == 0 {
		e.ranks[r].sessions--
	}
	e.endSession(r, now)
	e.rec.Mark(r, now, trace.Active)
	e.startQuantum(r)
}

// endSession closes idle rank r's work-discovery session at instant at.
// A close after detection — the terminate broadcast's arrival, a crash
// — counts up to the makespan, as obs.EachSession clips the sessions
// it derives from the trace.
func (e *engine) endSession(r int, at sim.Time) {
	rk := &e.ranks[r]
	if e.detected {
		at = min(at, e.detectedAt)
	}
	rk.sessionTime += at.Sub(rk.idleSince)
}

// injectNode roots a served job at rank r: a working rank banks it, an
// idle one resumes on it, a crashed one destroys it (a done one never
// gets one: a serving run finishes after its last arrival).
func (e *engine) injectNode(r int, node uts.Node) {
	w := e.work(r)
	w.generated++
	switch e.states[r] {
	case rsCrashed:
		e.destroy(r, -1, []uts.Node{node})
	case rsWorking:
		w.stack.Push(node)
	default:
		w.lineage = 0
		w.stack.Push(node)
		e.resume(r)
	}
}

// handleStealRequest answers thief's request against rank v's stack.
func (e *engine) handleStealRequest(v, thief int, id uint64) {
	now := e.kernel.Now()
	e.rec.Record(v, now, trace.EvStealRecv, thief, int64(id))
	// Only a working victim can give: an idle rank went idle on an empty
	// stack and resumes the moment work reaches it, so a request to one
	// reads its state byte and nothing of its rank, and a done one
	// answers no-work whatever it holds (the thief will receive its own
	// terminate).
	twoSided := e.cfg.Protocol == TwoSided
	var w *worker
	avail := 0
	if e.states[v] == rsWorking {
		w = e.ranks[v].w
		// Answering costs the victim compute time whether or not it has
		// work to give; the flood of failed steals the paper measures
		// (Figure 7) slows victims down through exactly this term. Idle
		// victims answer from otherwise-wasted time, and under the
		// one-sided protocol the network hardware serves the request, so
		// only working two-sided ranks accrue the delay.
		if twoSided {
			w.extraDelay += handleRequestCost
		}
		avail = w.stack.StealableChunks()
	}
	if avail == 0 {
		e.rec.Record(v, now, trace.EvNoWorkSend, thief, int64(id))
		e.net.SendID(v, thief, comm.TagNoWork, id, 16)
		return
	}
	want := 1
	if e.cfg.Steal == StealHalf {
		want = (avail + 1) / 2
	}
	loot, _ := w.stack.StealInto(e.getLoot(), want)
	e.det.WorkSent(v)
	e.workSent++
	if twoSided {
		w.extraDelay += stealResponseCost
	}
	e.rec.Record(v, now, trace.EvWorkSend, thief, int64(len(loot)))
	e.net.SendNodes(v, thief, id, loot, int(w.lineage)+1, len(loot)*uts.NodeBytes)
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
	if e.cfg.ImmediateRetry || rk.consecFails < backoffThreshold {
		e.sendSteal(r)
		return
	}
	if rk.backoff == 0 {
		rk.backoff = backoffBase
	} else if rk.backoff < backoffMax {
		rk.backoff *= 2
		if rk.backoff > backoffMax {
			rk.backoff = backoffMax
		}
	}
	e.states[r] = rsBackoff
	e.rankTimer(rk.backoff, e.backoffEndFn, r)
}

// forwardTokens transmits detector-emitted tokens on the ring.
func (e *engine) forwardTokens(sends []term.Send) {
	for _, s := range sends {
		now := e.kernel.Now()
		if s.Regen {
			// The previous token died with a crashed rank (or the rank
			// was the initiator itself); the healed ring starts over.
			e.tokenRegens++
			e.rec.Record(s.From, now, trace.EvTokenRegen, s.To, int64(s.Token.Round))
		}
		e.rec.Record(s.From, now, trace.EvTokenSend, s.To, 0)
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
	// Detection happens at the ring initiator — rank 0 unless crashes
	// moved the role to a higher survivor.
	initr := e.det.Initiator()
	e.finishRank(initr, e.detectedAt)
	for r := 0; r < e.cfg.Ranks; r++ {
		if r == initr || e.states[r] == rsCrashed {
			continue
		}
		e.net.SendID(initr, r, comm.TagTerminate, 0, 8)
	}
	return true
}

// markDetected records the verdict that ends the run, on every engine
// of it. In a sharded run a verdict must land in a serialized window
// (DESIGN.md §13): the broadcast to the sibling shard engines is then
// single-threaded, and they observe it in later windows through the
// barrier's happens-before edge. A verdict anywhere else — a parallel
// window, or the set-up before the first — panics; inside a window
// par.Run re-raises the panic on its caller.
func (e *engine) markDetected(at sim.Time) {
	if e.par != nil && !e.par.serialized {
		panic(fmt.Sprintf("core: termination verdict at %d ns outside a serialized window", at))
	}
	e.detected, e.detectedAt = true, at
	if e.par != nil {
		for _, o := range e.par.engines {
			o.detected, o.detectedAt = true, at
		}
	}
}

// finishRank retires rank r at instant at — termination reached it, or
// the serving run finished: it is marked done, its session closed at
// the makespan and its pending quantum cancelled. Event handles are
// arena slots of the kernel that issued them, so the cancel goes
// through the owning engine's kernel — another shard's would poison an
// unrelated slot.
func (e *engine) finishRank(r int, at sim.Time) {
	rk := &e.ranks[r]
	if e.states[r] == rsDone || e.states[r] == rsCrashed {
		return
	}
	e.rec.Record(r, at, trace.EvTerminate, -1, 0)
	if e.states[r] != rsWorking {
		e.endSession(r, at)
	}
	if w := rk.w; w != nil {
		e.owner(r).kernel.Cancel(w.quantum) // no-op when no quantum is pending
		w.quantum = sim.Event{}
	}
	e.states[r] = rsDone
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
// state it walks is shared across shard engines; only the counters and
// the traffic are per engine.
func result(engines []*engine) (*Result, error) {
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
	var totalSearch, totalSession sim.Duration
	var remaining int
	var totalUnits uint64
	res.MinRankNodes = ^uint64(0)
	for i := range e.ranks {
		rk := &e.ranks[i]
		res.StealRequests += rk.requests
		res.FailedSteals += rk.fails
		res.SuccessfulSteals += rk.successes
		res.AbortedSteals += rk.aborted
		res.Sessions += rk.sessions
		totalSession += rk.sessionTime
		totalSearch += rk.searchWait
		w := rk.w
		if w == nil {
			res.MinRankNodes = 0
			continue
		}
		res.Nodes += w.nodes
		res.Leaves += w.leaves
		res.NodesGenerated += w.generated
		totalUnits += w.units
		res.MaxRankNodes = max(res.MaxRankNodes, w.nodes)
		res.MinRankNodes = min(res.MinRankNodes, w.nodes)
		res.MaxDepth = max(res.MaxDepth, w.maxDepth)
		remaining += w.stack.Len()
		res.ChunksTransferred += w.stack.ChunksAcquired()
	}
	res.MeanSearchTime = totalSearch / sim.Duration(e.cfg.Ranks)
	if res.Sessions > 0 {
		res.MeanSessionDuration = totalSession / sim.Duration(res.Sessions)
	}
	res.SequentialTime = sim.Duration(totalUnits) * e.cfg.NodeCost
	e.w.report(e, res)
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
			f := &e.faults[i]
			res.PerRankFaults[i] = RankFault{
				Rank:       i,
				Crashed:    e.states[i] == rsCrashed,
				CrashedAt:  f.crashedAt,
				LostNodes:  f.lostNodes,
				Timeouts:   e.ranks[i].aborted,
				Blacklists: f.blacklists,
			}
		}
	}
	res.Trace = e.rec.Finish(e.detectedAt)
	return res, nil
}
