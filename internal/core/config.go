// Package core is the distributed work-stealing engine — the system the
// paper studies, rebuilt over a simulated cluster.
//
// Each MPI rank of the reference UTS implementation becomes an
// event-driven state machine scheduled by a discrete-event kernel. A
// working rank expands tree nodes in quanta and polls its mailbox
// between quanta (the paper's two-sided MPI model: a victim must stop
// working to answer steal requests). An idle rank picks victims with a
// pluggable selection strategy, sends steal requests and waits for
// replies; termination is detected by a distributed token algorithm.
//
// The engine records the UTS statistics the paper reports (failed
// steals, search time, work-discovery sessions) and, optionally, the
// activity trace behind the paper's scheduling-latency metric.
package core

import (
	"errors"
	"fmt"

	"distws/internal/comm"
	"distws/internal/fault"
	"distws/internal/obs"
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/sim/par"
	"distws/internal/term"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
	"distws/internal/workstack"
)

// StealPolicy is the amount of work a successful steal transfers.
type StealPolicy uint8

const (
	// StealOne transfers a single chunk, as the reference UTS does.
	StealOne StealPolicy = iota
	// StealHalf transfers half the victim's stealable chunks (§IV-C).
	StealHalf
)

func (p StealPolicy) String() string {
	if p == StealHalf {
		return "Half"
	}
	return "One"
}

// Protocol selects how steal requests reach a victim.
type Protocol uint8

const (
	// TwoSided is the reference model: the victim answers requests only
	// when it polls between node expansions, and pays CPU time for
	// every answer. This is the protocol the paper studies.
	TwoSided Protocol = iota
	// OneSided models RDMA-style steals (the paper's §VII future work,
	// and the ARMCI implementation of Dinan et al. discussed in §VI):
	// requests are served at delivery time without interrupting the
	// victim's computation and without per-request victim CPU cost.
	OneSided
)

func (p Protocol) String() string {
	if p == OneSided {
		return "OneSided"
	}
	return "TwoSided"
}

// Defaults used when Config fields are zero.
const (
	// DefaultNodeCost calibrates one node expansion to ~1 µs of virtual
	// time, close to the paper's measured 970k nodes/second per rank.
	DefaultNodeCost = 1 * sim.Microsecond
	// DefaultStealResponseCost is the victim-side CPU time to package
	// and post a work reply to one steal request.
	DefaultStealResponseCost = 500 * sim.Nanosecond
	// DefaultHandleRequestCost is the victim-side CPU time consumed by
	// every steal request it answers, successful or not — the paper's
	// "a worker stops advancing the computation to answer steal
	// requests from others, thus slowing down the application". Failed
	// steals are pure overhead for the victim too.
	DefaultHandleRequestCost = 600 * sim.Nanosecond
	// DefaultMaxVirtualTime aborts runaway simulations.
	DefaultMaxVirtualTime = sim.Time(24 * 3600 * 1e9) // one virtual day
	// DefaultFaultStealTimeout arms aborting steals when a lossy fault
	// plan is active and Config.StealTimeout was left zero: without a
	// timeout, a thief whose request (or its reply) died with a crashed
	// rank or a dropped message would wait forever.
	DefaultFaultStealTimeout = 100 * sim.Microsecond
)

// Config describes one simulated execution.
type Config struct {
	// Tree is the UTS workload.
	Tree uts.Params

	// Machine is the simulated system; zero value means the K Computer.
	Machine topology.Machine
	// Ranks is the number of MPI ranks (required, >= 1).
	Ranks int
	// Placement maps ranks to nodes (1/N, 8RR, 8G).
	Placement topology.Placement

	// Selector builds the victim-selection strategy; nil means the
	// reference round-robin.
	Selector victim.Factory
	// Steal is the steal-amount policy.
	Steal StealPolicy
	// ChunkSize is nodes per chunk; 0 means the UTS default of 20.
	ChunkSize int
	// PollInterval is the number of node expansions between mailbox
	// polls; 0 means 1, matching the reference implementation, whose
	// work loop makes MPI progress on every iteration. Larger values
	// model a coarser progress engine (ablation A2) — they inflate the
	// victim-side component of the steal round trip until physical
	// latency differences stop mattering.
	PollInterval int

	// NodeCost is the virtual compute time per node expansion; 0 means
	// DefaultNodeCost. Work granularity (paper §V-B) scales this by the
	// tree's SHA-round count — use GranularityCost.
	NodeCost sim.Duration
	// StealResponseCost is victim CPU time to package work for one
	// successful steal; 0 means DefaultStealResponseCost.
	StealResponseCost sim.Duration
	// HandleRequestCost is victim CPU time per steal request answered,
	// successful or not; 0 means DefaultHandleRequestCost.
	HandleRequestCost sim.Duration
	// Latency is the network model; nil means topology.DefaultLatency.
	Latency topology.LatencyModel

	// Detector builds the termination detector; nil means Safra.
	Detector term.Factory

	// Protocol selects the steal transport (two-sided polling, as in
	// the paper, or one-sided RDMA-style).
	Protocol Protocol

	// StealTimeout, when positive, enables aborting steals (Dinan et
	// al., paper §VI): a thief that has waited longer than this for a
	// reply abandons it and tries another victim. Work arriving late is
	// still accepted. Zero disables aborts (reference behaviour).
	StealTimeout sim.Duration

	// BackoffPolicy throttles steal retries after long failure runs;
	// the zero value selects DefaultBackoff, Threshold < 0 disables
	// throttling entirely (reference-faithful immediate retry).
	BackoffPolicy Backoff

	// Faults, when non-nil, is the deterministic fault plan injected
	// into the run (internal/fault): fail-stop crashes, stragglers, and
	// link-level drop/duplication/latency spikes. A nil (or empty) plan
	// keeps every fault-free fast path: the run is bit-identical to one
	// built without the field. Lossy plans arm DefaultFaultStealTimeout
	// unless StealTimeout is set explicitly.
	Faults *fault.Plan

	// Shards partitions the ranks across that many parallel simulation
	// kernels (internal/sim/par) synchronized by conservative time
	// windows; 0 or 1 runs the classic sequential kernel, byte-identical
	// to builds without the feature. For any fixed (Config, Shards) the
	// run is bit-identical across repetitions — that is the hard
	// determinism contract. The Result is additionally independent of
	// the shard count unless the configuration produces symmetric
	// same-instant collisions (two messages sent at the same nanosecond
	// arriving at the same rank at the same nanosecond): there the
	// sequential kernel breaks the tie by its global insertion counter,
	// an order no windowed simulator can reconstruct, and the sharded
	// runs use the canonical (deliver, sent, sender) order instead. The
	// paper's Figure-9 configurations are collision-free and the
	// determinism-matrix test pins their shard-count invariance. Shards
	// must not exceed Ranks; sharding is incompatible with stateful
	// latency models (topology.JitterLatency) and with fault plans that
	// need the send-path interposer (link faults, straggler send
	// multipliers).
	Shards int

	// ParProfile enables the parallel-kernel window ledger
	// (internal/obs/parprof): Result.Par records every conservative time
	// window with its serialization cause and barrier traffic. Recording
	// happens only at window barriers (coordinator context, workers
	// quiescent), so a profiled run is byte-identical to an unprofiled
	// one — traces, metrics, and results never change (observer freedom,
	// asserted by tests). With Shards <= 1 the ledger is the empty
	// sequential degenerate (no windows). The engine never publishes the
	// ledger to Config.Metrics; callers opt in via parprof.Publish.
	ParProfile bool

	// ParWallProbe, when non-nil and Shards > 1, receives wall-clock
	// window callbacks (par.WallProbe) for the busy/barrier-wait profile
	// in parprof/wallclock. Wall readings flow only outward into
	// diagnostics, never into the simulation, so the run stays
	// bit-deterministic. Ignored by the sequential kernel.
	ParWallProbe par.WallProbe

	// Serve, when non-nil, switches the engine into open-system serving
	// mode (internal/serve, DESIGN.md §15): instead of a single tree
	// rooted at rank 0, jobs arrive continuously from the spec's tenants
	// under admission control, each rooted at a placement-chosen rank,
	// and the run ends when the arrival horizon has passed and every
	// admitted job drained. Config.Tree is ignored (each job carries its
	// own workload); the termination detector is replaced by the open
	// detector. The serving run is a pure function of (Config, Seed) —
	// including under Shards >= 2 — and a nil Serve keeps every closed-
	// system path byte-identical to builds without the feature. Serving
	// is incompatible with fault plans: job-completion accounting
	// assumes no work is ever lost.
	Serve *serve.Spec

	// Seed drives every random choice of the run.
	Seed uint64

	// CollectTrace enables the activity trace (paper §III). Costs
	// memory proportional to the number of phase transitions.
	CollectTrace bool

	// CollectEvents enables the protocol-level event log (internal/obs):
	// bounded per-rank rings of steal, token, and quantum events attached
	// to Result.Trace. Implies CollectTrace. Recording never perturbs the
	// simulation — a traced run and an untraced run of the same
	// configuration produce identical results (asserted by tests).
	CollectEvents bool
	// EventBuffer caps the per-rank event ring when CollectEvents is set;
	// 0 means obs.DefaultRingCap. Runs that outgrow the ring keep the
	// newest events and report the eviction count.
	EventBuffer int

	// Metrics, when non-nil, receives named counters and histograms
	// (steal outcomes, round-trip latency, session lengths, chunk sizes,
	// and — up to MatrixRankLimit ranks — the per-link traffic matrix).
	// The simulator writes virtual-time durations, so the registry's
	// final contents are deterministic for a deterministic Config.
	Metrics *obs.Registry

	// MaxVirtualTime aborts the run if the virtual clock passes it;
	// 0 means DefaultMaxVirtualTime.
	MaxVirtualTime sim.Time

	// testDeliveryProbe, when set (package-internal, for tests), is
	// installed as the delivery hook in place of engine.deliver, which
	// it is expected to wrap.
	testDeliveryProbe func(e *engine, m *comm.Message) bool
}

// serveTenants is the tenant count for serving-metric registration
// (0 when serving is disabled).
func (c Config) serveTenants() int {
	if c.Serve == nil {
		return 0
	}
	return len(c.Serve.Tenants)
}

// GranularityCost returns the node cost for a tree whose node creation
// runs the given number of SHA rounds, scaling DefaultNodeCost the way
// the paper's granularity experiment does (§V-B).
func GranularityCost(shaRounds int) sim.Duration {
	if shaRounds < 1 {
		shaRounds = 1
	}
	return sim.Duration(shaRounds) * DefaultNodeCost
}

// withDefaults returns a copy of c with zero values replaced.
func (c Config) withDefaults() Config {
	if c.Machine == (topology.Machine{}) {
		c.Machine = topology.KComputer()
	}
	if c.Selector == nil {
		c.Selector = victim.NewRoundRobin
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = workstack.DefaultChunkSize
	}
	if c.PollInterval == 0 {
		c.PollInterval = 1
	}
	if c.NodeCost == 0 {
		c.NodeCost = DefaultNodeCost
	}
	if c.StealResponseCost == 0 {
		c.StealResponseCost = DefaultStealResponseCost
	}
	if c.HandleRequestCost == 0 {
		c.HandleRequestCost = DefaultHandleRequestCost
	}
	if c.Latency == nil {
		c.Latency = topology.DefaultLatency()
	}
	if c.Detector == nil {
		c.Detector = term.NewSafra
	}
	if c.MaxVirtualTime == 0 {
		c.MaxVirtualTime = DefaultMaxVirtualTime
	}
	if c.StealTimeout == 0 && c.Faults != nil && c.Faults.Lossy() {
		c.StealTimeout = DefaultFaultStealTimeout
	}
	return c
}

// exclusions lists the feature pairs that do not compose. Validate
// reports the first one a configuration asks for, so no run allocates
// anything before learning it cannot proceed.
var exclusions = []struct {
	holds func(c *Config) bool
	msg   string
}{
	{func(c *Config) bool { return c.Shards > c.Ranks },
		"more shards than ranks (shards must not exceed ranks)"},
	{func(c *Config) bool {
		_, jitter := c.Latency.(*topology.JitterLatency)
		return c.Shards > 1 && jitter
	}, "JitterLatency is stateful and admits no sound lookahead bound; it cannot be sharded"},
	{func(c *Config) bool {
		if c.Shards <= 1 {
			return false
		}
		// Plan.Validate has passed, so Compile cannot fail.
		inj, _ := fault.Compile(c.Faults, c.Ranks, nil)
		return inj.NeedsInterposer()
	}, "fault plans with link faults or straggler send multipliers need the send-path interposer and cannot be sharded"},
	{func(c *Config) bool { return c.Serve != nil && c.Faults != nil && !c.Faults.Empty() },
		"serving mode is incompatible with fault plans (job accounting assumes no lost work)"},
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Tree.Validate(); err != nil {
		return err
	}
	if c.Ranks < 1 {
		return fmt.Errorf("core: %d ranks", c.Ranks)
	}
	if c.ChunkSize < 0 || c.PollInterval < 0 {
		return errors.New("core: negative chunk size or poll interval")
	}
	if c.ChunkSize > workstack.MaxChunkSize {
		return fmt.Errorf("core: chunk size %d over the work stack's limit of %d", c.ChunkSize, workstack.MaxChunkSize)
	}
	if c.NodeCost < 0 || c.StealResponseCost < 0 || c.HandleRequestCost < 0 {
		return errors.New("core: negative cost")
	}
	if c.BackoffPolicy.Base < 0 || c.BackoffPolicy.Max < 0 {
		return errors.New("core: negative backoff pause")
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(c.Ranks); err != nil {
			return err
		}
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: %d shards", c.Shards)
	}
	if c.Serve != nil {
		if err := c.Serve.Validate(); err != nil {
			return err
		}
		mvt := c.MaxVirtualTime
		if mvt == 0 {
			mvt = DefaultMaxVirtualTime
		}
		if sim.Time(0).Add(c.Serve.Horizon) >= mvt {
			return fmt.Errorf("core: serving horizon %v reaches MaxVirtualTime %v", c.Serve.Horizon, mvt)
		}
	}
	for _, x := range exclusions {
		if x.holds(&c) {
			return errors.New("core: " + x.msg)
		}
	}
	return nil
}
