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
	"distws/internal/dag"
	"distws/internal/fault"
	"distws/internal/obs"
	"distws/internal/serve"
	"distws/internal/sim"
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
	// DefaultMaxVirtualTime aborts runaway simulations.
	DefaultMaxVirtualTime = sim.Time(24 * 3600 * 1e9) // one virtual day
	// DefaultFaultStealTimeout arms aborting steals when a lossy fault
	// plan is active and Config.StealTimeout was left zero: without a
	// timeout, a thief whose request (or its reply) died with a crashed
	// rank or a dropped message would wait forever.
	DefaultFaultStealTimeout = 100 * sim.Microsecond
)

// Victim-side CPU costs of the two-sided protocol.
const (
	// stealResponseCost is the victim-side CPU time to package and post
	// a work reply to one steal request.
	stealResponseCost = 500 * sim.Nanosecond
	// handleRequestCost is the victim-side CPU time consumed by every
	// steal request it answers, successful or not — the paper's "a
	// worker stops advancing the computation to answer steal requests
	// from others, thus slowing down the application". Failed steals are
	// pure overhead for the victim too.
	handleRequestCost = 600 * sim.Nanosecond
)

// Retry backoff: how idle ranks throttle steal attempts once a long run
// of consecutive failures indicates global work scarcity. The reference
// implementation and every tree experiment retry immediately forever
// (Config.ImmediateRetry). Otherwise, after backoffThreshold consecutive
// failures the thief waits backoffBase, doubling up to backoffMax,
// resetting on success: the serving workload's idle ranks, task graphs,
// the repository benchmark's workloads and ablation A6 run this ladder.
const (
	backoffThreshold = 64
	backoffBase      = 100 * sim.Microsecond
	backoffMax       = 2 * sim.Millisecond

	// blacklistAfter and blacklistFor extend the policy under a fault
	// plan, whatever ImmediateRetry says: after blacklistAfter
	// consecutive timeouts against the same victim, the thief stops
	// picking it for blacklistFor of virtual time (a crashed rank never
	// answers, so retrying it is pure waste). Without a fault plan
	// nothing is blacklisted — fault-free timeouts come from the
	// aborting-steals ablation, where the victim is alive and merely
	// slow, and skipping it would change the experiment.
	blacklistAfter = 2
	blacklistFor   = 1 * sim.Millisecond
)

// Config describes one simulated execution.
type Config struct {
	// Tree is the UTS workload.
	Tree uts.Params

	// Machine must be left zero: every run is placed on the K Computer.
	// The field stays only because the repository benchmark under bench/
	// reads it.
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

	// ImmediateRetry makes an idle rank retry a failed steal at once,
	// forever, as the reference and every tree experiment do. By
	// default a thief pauses after 64 consecutive failures: 100 µs,
	// doubling up to 2 ms, until a steal succeeds (the serving
	// workload's idle ranks, task graphs, the benchmark and A6).
	ImmediateRetry bool

	// Faults, when non-nil, is the deterministic fault plan injected
	// into the run (internal/fault): fail-stop crashes, stragglers, and
	// link-level drop/duplication/latency spikes. A nil (or empty) plan
	// keeps every fault-free fast path: the run is bit-identical to one
	// built without the field. Lossy plans arm DefaultFaultStealTimeout
	// unless StealTimeout is set explicitly.
	Faults *fault.Plan

	// Shards partitions the ranks across that many parallel simulation
	// kernels (internal/sim/par) synchronized by conservative time
	// windows (DESIGN.md §13); 0 or 1 runs the classic sequential kernel.
	// Only a closed tree on a fault-free, stateless network can be
	// sharded: Shards > 1 refuses a task graph, serving, a non-empty
	// fault plan and topology.JitterLatency, and must not exceed Ranks.
	// For any fixed (Config, Shards) the run is bit-identical across
	// repetitions. The Result is additionally independent of the shard
	// count unless the configuration produces symmetric same-instant
	// collisions (two messages sent at the same nanosecond arriving at
	// the same rank at the same nanosecond): there the sequential kernel
	// breaks the tie by its global insertion counter, an order no
	// windowed simulator can reconstruct, and the sharded runs use the
	// canonical (deliver, sent, sender) order instead. The paper's
	// Figure-9 configurations are collision-free and the
	// determinism-matrix test pins their shard-count invariance.
	Shards int

	// ParProfile, with Shards > 1, records the parallel-kernel window
	// ledger (internal/obs/parprof) in Result.Par: every conservative
	// time window with its serialization cause and barrier traffic.
	// Recording happens only at window barriers (coordinator context,
	// workers quiescent), so a profiled run is byte-identical to an
	// unprofiled one (observer freedom, asserted by tests).
	ParProfile bool

	// Serve, when non-nil, switches the engine into open-system serving
	// mode (internal/serve, DESIGN.md §14): instead of a single tree
	// rooted at rank 0, jobs arrive continuously from the spec's tenants
	// under admission control, each rooted at a placement-chosen rank,
	// and the run ends when the arrival horizon has passed and every
	// admitted job drained. Config.Tree is ignored (each job carries its
	// own workload); the termination detector is replaced by the open
	// detector. The serving run is a pure function of (Config, Seed),
	// and a nil Serve keeps every closed-system path byte-identical to
	// builds without the feature. A fault plan composes: a job any of
	// whose work a fault destroyed is booked lost instead of done
	// (serve.Stats.Lost).
	Serve *serve.Spec

	// Graph, when non-nil, schedules that task graph (the §VII study,
	// DESIGN.md §5) instead of Tree. NodeCost and PollInterval are
	// ignored: a quantum is one task, its cost plus its fetch stall.
	// ChunkSize counts tasks, a fault plan composes, Serve and
	// Shards > 1 are refused, and runs may share the graph (only read).
	Graph *dag.Graph

	// Seed drives every random choice of the run.
	Seed uint64

	// CollectTrace records the activity trace (paper §III, obs.Recorder):
	// the phase transitions, whose idle spans are the work-discovery
	// sessions (obs.EachSession). Costs memory proportional to the
	// number of phase transitions.
	CollectTrace bool

	// CollectEvents records at the events level: the same activity trace
	// plus bounded per-rank logs of steal, token and quantum events, in
	// Result.Trace. Recording never perturbs the simulation — an untraced
	// run and a run at either level produce identical results (asserted by
	// tests).
	CollectEvents bool
	// EventBuffer caps the per-rank event log, in events, when
	// CollectEvents is set; 0 means obs.DefaultRingCap. Runs that outgrow
	// the cap keep the newest events and report the eviction count.
	EventBuffer int

	// Metrics is ignored: the engine writes no metrics registry, and a
	// run's steal counts and latencies are its Result and its event log.
	// The field stays only because the repository benchmark under bench/
	// sets it.
	Metrics *obs.Registry

	// maxVirtualTime (package-internal, for tests) aborts the run if the
	// virtual clock passes it; 0 means DefaultMaxVirtualTime.
	maxVirtualTime sim.Time

	// testDeliveryProbe, when set (package-internal, for tests), is
	// installed as the delivery hook in place of engine.deliver, which
	// it is expected to wrap.
	testDeliveryProbe func(e *engine, m *comm.Message) bool
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
	if c.Latency == nil {
		c.Latency = topology.DefaultLatency()
	}
	if c.Detector == nil {
		c.Detector = term.NewSafra
	}
	if c.maxVirtualTime == 0 {
		c.maxVirtualTime = DefaultMaxVirtualTime
	}
	if c.StealTimeout == 0 && c.Faults != nil && c.Faults.Lossy() {
		c.StealTimeout = DefaultFaultStealTimeout
	}
	return c
}

// exclusions lists the feature pairs that do not compose.
// Config.Validate reports the first one a run asks for, so no run
// allocates anything before learning it cannot proceed.
var exclusions = []struct {
	holds func(c *Config) bool
	err   error
}{
	{func(c *Config) bool { return c.Shards > c.Ranks },
		errors.New("core: more shards than ranks (shards must not exceed ranks)")},
	{func(c *Config) bool {
		_, jitter := c.Latency.(*topology.JitterLatency)
		return c.Shards > 1 && (c.Graph != nil || c.Serve != nil || (c.Faults != nil && !c.Faults.Empty()) || jitter)
	}, errors.New("core: a task graph, serving, a fault plan or JitterLatency cannot be sharded (sharding runs a closed, fault-free tree)")},
	{func(c *Config) bool { return c.Graph != nil && c.Serve != nil },
		errors.New("core: a graph run is incompatible with serving mode (job accounting counts tree nodes)")},
}

// Validate reports configuration errors of a Run.
func (c Config) Validate() error {
	if err := c.Tree.Validate(); err != nil {
		return err
	}
	if c.Ranks < 1 {
		return fmt.Errorf("core: %d ranks", c.Ranks)
	}
	if c.Ranks > comm.MaxRanks {
		return fmt.Errorf("core: %d ranks, over the %d a message header can address", c.Ranks, comm.MaxRanks)
	}
	if c.Machine != (topology.Machine{}) {
		return errors.New("core: Config.Machine is not supported; every run is placed on the K Computer")
	}
	if err := topology.CheckJob(topology.KComputer(), c.Ranks, c.Placement); err != nil {
		return err
	}
	if c.ChunkSize < 0 || c.PollInterval < 0 || c.EventBuffer < 0 {
		return errors.New("core: negative chunk size, poll interval or event buffer")
	}
	if c.ChunkSize > workstack.MaxChunkSize {
		return fmt.Errorf("core: chunk size %d over the work stack's limit of %d", c.ChunkSize, workstack.MaxChunkSize)
	}
	if c.NodeCost < 0 {
		return errors.New("core: negative cost")
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
		mvt := c.maxVirtualTime
		if mvt == 0 {
			mvt = DefaultMaxVirtualTime
		}
		if sim.Time(0).Add(c.Serve.Horizon) >= mvt {
			return fmt.Errorf("core: serving horizon %v reaches the virtual time limit %v", c.Serve.Horizon, mvt)
		}
	}
	if g := c.Graph; g != nil {
		if g.Len() == 0 {
			return errors.New("core: empty graph")
		}
		if err := g.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	for _, x := range exclusions {
		if x.holds(&c) {
			return x.err
		}
	}
	return nil
}
