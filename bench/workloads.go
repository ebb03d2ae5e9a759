package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"distws/internal/core"
	"distws/internal/fault"
	"distws/internal/obs"
	"distws/internal/rng"
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
)

// scale fixes every workload's input size. The benchmark always runs
// fullScale; smallScale exists so bench_test.go can drive the same code
// in seconds.
type scale struct {
	name string
	// tree is the preset of closed-1k and lossy-1k, tinyTree the one of
	// every other closed workload: at 8192 ranks, with recording on, or
	// run 90 times a pass, the larger tree would not leave room for five
	// timed reps.
	tree, tinyTree         string
	ranks1k, ranks8k       int
	serveRanks             int
	serveHorizon           sim.Duration
	sweepRanks, sweepSeeds int
	crashes                int
	// nominalMakespan is the fault-free makespan of (tree, ranks1k),
	// rounded; lossy-1k places its crashes at fixed fractions of it so
	// the fault plan needs no calibration run.
	nominalMakespan sim.Duration
}

var fullScale = scale{
	name: "full",
	tree: "H-SMALL", tinyTree: "H-TINY",
	ranks1k: 1024, ranks8k: 8192,
	serveRanks: 256, serveHorizon: 10 * sim.Millisecond,
	sweepRanks: 64, sweepSeeds: 10,
	crashes:         8,
	nominalMakespan: 30 * sim.Millisecond,
}

var smallScale = scale{
	name: "small",
	tree: "H-TINY", tinyTree: "H-TINY",
	ranks1k: 64, ranks8k: 64,
	serveRanks: 16, serveHorizon: 2 * sim.Millisecond,
	sweepRanks: 16, sweepSeeds: 1,
	crashes:         2,
	nominalMakespan: 2 * sim.Millisecond,
}

// kind selects a workload's verification rule.
type kind uint8

const (
	kindClosed kind = iota // tree totals equal the sequential traversal
	kindLossy              // completed + lost == generated, every crash fired
	kindServe              // arrived == admitted + rejected, done == admitted
)

// inputs is everything one workload hands to core.Run, generated from
// the seed before any timing starts.
type inputs struct {
	kind kind
	// cfgs are run in order by one timed rep: a single config for every
	// workload but sweep-small.
	cfgs []core.Config
	// twin, when non-nil, is the reference configuration whose result
	// digest every rep must reproduce (recording off for observed-1k).
	twin *core.Config
	// sharded, when non-nil, is the same run on the two-shard window
	// kernel. Only the traced pass runs it, for the par.* metrics.
	sharded *core.Config
	// analyze runs the observability pipeline on every result inside
	// the timed region.
	analyze bool
	// treeName labels the tree in the run manifest.
	treeName string
}

// variant is the workload with its one config replaced, for the twin
// and sharded runs.
func (in *inputs) variant(cfg *core.Config) *inputs {
	return &inputs{kind: in.kind, cfgs: []core.Config{*cfg}, treeName: in.treeName}
}

type workload struct {
	name  string
	why   string
	build func(sc scale, seed uint64) *inputs
}

// baseConfig is the configuration every workload starts from: the
// paper's best strategy (distance-skewed victims, steal-half), chunk
// size 4, 1/N placement, Safra termination.
func baseConfig(tree string, ranks int, seed uint64) core.Config {
	return core.Config{
		Tree:      uts.MustPreset(tree).Params,
		Ranks:     ranks,
		Placement: topology.OnePerNode,
		Selector:  victim.NewDistanceSkewed,
		Steal:     core.StealHalf,
		ChunkSize: 4,
		Seed:      seed,
	}
}

var workloads = []workload{
	{
		name: "closed-1k",
		why:  "closed run at the latency-table limit: SHA-1 child generation and the work stack carry the largest share, latency is a table hit",
		build: func(sc scale, seed uint64) *inputs {
			return &inputs{cfgs: []core.Config{baseConfig(sc.tree, sc.ranks1k, seed)}, treeName: sc.tree}
		},
	},
	{
		name: "steal-8k",
		why:  "the paper's top rung: a steal storm where event heap, comm, victim draws and un-tabled latency dominate and SHA-1 does not",
		build: func(sc scale, seed uint64) *inputs {
			cfg := baseConfig(sc.tinyTree, sc.ranks8k, seed)
			sharded := cfg
			sharded.Shards = 2
			sharded.ParProfile = true
			return &inputs{cfgs: []core.Config{cfg}, sharded: &sharded, treeName: sc.tinyTree}
		},
	},
	{
		name: "serve-knee",
		why:  "open system at offered load 1: fast-hash jobs and almost no stealing, so the quantum loop, work stack and timer events dominate and comm idles",
		build: func(sc scale, seed uint64) *inputs {
			cfg := baseConfig(sc.tree, sc.serveRanks, seed)
			cfg.Serve = serveSpec(sc.serveRanks, sc.serveHorizon)
			return &inputs{kind: kindServe, cfgs: []core.Config{cfg}, treeName: "serve"}
		},
	},
	{
		name: "lossy-1k",
		why:  "closed-1k under crashes, a straggler and duplicating links: the fault interposer sits on every send and steal timeouts are armed",
		build: func(sc scale, seed uint64) *inputs {
			cfg := baseConfig(sc.tree, sc.ranks1k, seed)
			cfg.Faults = faultPlan(sc, seed)
			return &inputs{kind: kindLossy, cfgs: []core.Config{cfg}, treeName: sc.tree}
		},
	},
	{
		name: "observed-1k",
		why:  "closed-1k with the event log and metrics on, then the causal, ledger and export pipeline: the price of observability",
		build: func(sc scale, seed uint64) *inputs {
			twin := baseConfig(sc.tinyTree, sc.ranks1k, seed)
			cfg := twin
			cfg.CollectEvents = true
			return &inputs{cfgs: []core.Config{cfg}, twin: &twin, analyze: true, treeName: sc.tinyTree}
		},
	},
	{
		name: "sweep-small",
		why:  "many 64-rank runs back to back, as an experiment sweep makes them: per-run set-up is a first-order cost",
		build: func(sc scale, seed uint64) *inputs {
			in := &inputs{treeName: sc.tinyTree}
			selectors := []victim.Factory{victim.NewRoundRobin, victim.NewUniformRandom, victim.NewDistanceSkewed}
			placements := []topology.Placement{topology.OnePerNode, topology.EightRoundRobin, topology.EightGrouped}
			for _, sel := range selectors {
				for _, pl := range placements {
					for i := 0; i < sc.sweepSeeds; i++ {
						cfg := baseConfig(sc.tinyTree, sc.sweepRanks, rng.Mix64(seed<<8+uint64(i)))
						cfg.Selector, cfg.Placement = sel, pl
						in.cfgs = append(in.cfgs, cfg)
					}
				}
			}
			return in
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// serveJobCost is the expected serial cost of one serving job: a
// fast-hash binomial tree with E[nodes] = 200/(1-4*0.22) ≈ 1667 at the
// default 1µs node cost (the shape of harness.servingSpec).
const serveJobCost = 1667 * sim.Microsecond

// serveSpec offers exactly the cluster's capacity (ρ = 1): a gold
// Poisson tenant under a 1.5×-capacity token bucket with a 5 ms SLO,
// and a light Gamma background tenant.
func serveSpec(ranks int, horizon sim.Duration) *serve.Spec {
	job := serve.Workload{Kind: serve.WorkUTS, Tree: uts.Params{
		Type: uts.Binomial, B0: 200, NonLeafBF: 4, NonLeafProb: 0.22, RootSeed: 42, Hash: uts.HashFast,
	}}
	capacityPerSec := float64(ranks) * float64(sim.Second) / float64(serveJobCost)
	return &serve.Spec{
		Horizon:   horizon,
		Placement: serve.PlaceRR,
		Tenants: []serve.Tenant{
			{
				Name:    "gold",
				Arrival: serve.ArrivalSpec{Process: serve.ProcPoisson, Mean: serveJobCost / sim.Duration(ranks)},
				Admit:   serve.Bucket{Rate: 1.5 * capacityPerSec, Burst: 4},
				SLO:     serve.SLO{Class: "gold", Target: 5 * sim.Millisecond},
				Work:    job,
			},
			{
				Name:    "silver",
				Arrival: serve.ArrivalSpec{Process: serve.ProcGamma, Mean: horizon / 16, Shape: 2},
				SLO:     serve.SLO{Class: "best-effort"},
				Work:    job,
			},
		},
	}
}

// faultPlan draws sc.crashes distinct victims (never rank 0) and one 2×
// straggler from the seed, spreads the crashes over 10–60 % of the
// nominal makespan and duplicates 2 % of the messages on every link, so
// the injector sits on every send and steal timeouts are armed. Links
// drop nothing: a dropped work message takes its unexpanded subtrees
// with it, and at a 3 % drop rate the completed share of the tree swung
// between 13 % and 54 % from seed to seed — a lottery, not a workload.
func faultPlan(sc scale, seed uint64) *fault.Plan {
	perm := rng.New(seed ^ 0xfa17).Perm(sc.ranks1k - 1)
	p := &fault.Plan{
		Seed:       seed,
		Stragglers: []fault.Straggler{{Rank: perm[sc.crashes] + 1, Compute: 2}},
		Links:      []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Dup: 0.02}},
	}
	for i := 0; i < sc.crashes; i++ {
		frac := 0.10 + 0.50*float64(i)/float64(max(sc.crashes-1, 1))
		p.Crashes = append(p.Crashes, fault.Crash{Rank: perm[i] + 1, At: sim.Time(float64(sc.nominalMakespan) * frac)})
	}
	return p
}

// withRegistry gives an observed config the fresh metrics registry a
// run needs: registries accumulate, so reusing one would make every
// rep's counters differ.
func withRegistry(cfg core.Config) core.Config {
	if cfg.CollectEvents {
		cfg.Metrics = obs.NewRegistry()
	}
	return cfg
}

// digest hashes the result's deterministic scalars. Trace-derived
// fields (sessions) are left out so a recording run can be compared
// with its recording-off twin, and the window ledger so a sharded run
// can be compared with the sequential one.
func digest(w io.Writer, r *core.Result) {
	fmt.Fprintln(w, r.Ranks, r.Nodes, r.Leaves, r.MaxDepth, int64(r.Makespan), int64(r.SequentialTime),
		r.StealRequests, r.FailedSteals, r.SuccessfulSteals, r.AbortedSteals, int64(r.MeanSearchTime),
		r.ChunksTransferred, r.MaxMigrationDepth, r.MaxRankNodes, r.MinRankNodes,
		r.TerminationRounds, r.Premature, r.Comm, r.NodesGenerated,
		r.CrashedRanks, r.LostNodes, r.LostMessages, r.TokenRegens, r.Recoveries, int64(r.MeanRecoveryLatency))
	if s := r.Serve; s != nil {
		fmt.Fprintln(w, s.Arrived, s.Admitted, s.Rejected, s.Done, int64(s.Finish))
	}
}

func digestOf(results []*core.Result) string {
	h := sha256.New()
	for _, r := range results {
		digest(h, r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check verifies one result against its workload's identities; ref is
// the sequential traversal of the tree (closed workloads only).
func (in *inputs) check(cfg *core.Config, r *core.Result, ref uts.CountResult) error {
	switch in.kind {
	case kindClosed:
		if r.Nodes != ref.Nodes || r.Leaves != ref.Leaves || r.MaxDepth != ref.MaxDepth {
			return fmt.Errorf("tree totals %d/%d/%d differ from the sequential traversal %d/%d/%d",
				r.Nodes, r.Leaves, r.MaxDepth, ref.Nodes, ref.Leaves, ref.MaxDepth)
		}
		if r.Premature {
			return fmt.Errorf("termination detected while work remained")
		}
	case kindLossy:
		if r.Nodes+r.LostNodes != r.NodesGenerated {
			return fmt.Errorf("completed %d + lost %d != generated %d", r.Nodes, r.LostNodes, r.NodesGenerated)
		}
		if want := len(cfg.Faults.Crashes); r.CrashedRanks != want {
			return fmt.Errorf("%d ranks crashed, plan has %d", r.CrashedRanks, want)
		}
	case kindServe:
		s := r.Serve
		if s == nil || s.Arrived != s.Admitted+s.Rejected || s.Done != s.Admitted || s.Admitted == 0 {
			return fmt.Errorf("serving books do not balance: %+v", s)
		}
	}
	if cfg.ParProfile {
		if r.Par == nil {
			return fmt.Errorf("sharded run returned no window ledger")
		}
		if err := r.Par.CheckIdentities(); err != nil {
			return err
		}
	}
	if cfg.CollectEvents {
		if r.Trace == nil {
			return fmt.Errorf("recording run returned no trace")
		}
		if err := r.Trace.Validate(); err != nil {
			return err
		}
	}
	return nil
}
