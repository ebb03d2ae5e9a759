package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"distws/internal/comm"
	"distws/internal/fault"
	"distws/internal/obs"
	"distws/internal/sim"
	"distws/internal/term"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
)

// startRun builds cfg's sequential run as Run does — one kernel, its
// engines and its workload, the work seeded — for tests that step the
// kernel or read the workload's books.
func startRun(t testing.TB, cfg Config) (*sim.Kernel, []*engine, workload) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg = cfg.withDefaults()
	job, err := topology.NewJob(topology.KComputer(), cfg.Ranks, cfg.Placement)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorkload(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	engines, err := newEngines(cfg, job, []*sim.Kernel{k}, nil, w, new(runStore))
	if err != nil {
		t.Fatal(err)
	}
	return k, engines, w
}

// runWork is Run for a sequential cfg, handing back the workload too.
func runWork(t testing.TB, cfg Config) (*Result, workload) {
	t.Helper()
	k, engines, w := startRun(t, cfg)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := result(engines)
	if err != nil {
		t.Fatal(err)
	}
	return res, w
}

// seqCount caches sequential enumerations of the test trees.
var seqCache = map[string]uts.CountResult{}

func seqCount(t testing.TB, preset string) uts.CountResult {
	t.Helper()
	if r, ok := seqCache[preset]; ok {
		return r
	}
	r, err := uts.CountSequential(uts.MustPreset(preset).Params)
	if err != nil {
		t.Fatal(err)
	}
	seqCache[preset] = r
	return r
}

func TestValidateConfig(t *testing.T) {
	bad := Config{Tree: uts.MustPreset("T3").Params, Ranks: 0}
	if _, err := Run(bad); err == nil {
		t.Fatal("zero ranks accepted")
	}
	badTree := Config{Tree: uts.Params{Type: uts.Binomial, NonLeafBF: 2, NonLeafProb: 0.6}, Ranks: 2}
	if _, err := Run(badTree); err == nil {
		t.Fatal("supercritical tree accepted")
	}
}

// TestValidateExclusions walks every feature pair the engine cannot
// compose and every signed knob: Validate itself must name the problem,
// before anything is allocated, and Run must return that error — a
// negative cost used to reach the kernel and panic it.
func TestValidateExclusions(t *testing.T) {
	valid := func() Config {
		return Config{Tree: uts.MustPreset("H-TINY").Params, Ranks: 16, Seed: 1}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"shards > ranks", func(c *Config) { c.Shards = 17 }, "must not exceed ranks"},
		{"shards x jitter", func(c *Config) {
			c.Shards = 2
			c.Latency = topology.NewJitterLatency(topology.DefaultLatency(), 0.1, 5)
		}, "cannot be sharded"},
		{"shards x link faults", func(c *Config) {
			c.Shards = 2
			c.Faults = &fault.Plan{Links: []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Dup: 0.1}}}
		}, "cannot be sharded"},
		{"shards x send straggler", func(c *Config) {
			c.Shards = 2
			c.Faults = &fault.Plan{Stragglers: []fault.Straggler{{Rank: 1, Send: 2}}}
		}, "cannot be sharded"},
		{"shards x crash", func(c *Config) {
			c.Shards = 2
			c.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: sim.Time(sim.Millisecond)}}}
		}, "cannot be sharded"},
		{"shards x serve", func(c *Config) {
			c.Shards = 2
			c.Serve = serveTestSpec()
		}, "cannot be sharded"},
		{"shards x serve x faults", func(c *Config) {
			c.Shards = 2
			c.Serve = serveTestSpec()
			c.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: sim.Time(sim.Millisecond)}}}
		}, "cannot be sharded"},
		{"ranks past the header limit", func(c *Config) { c.Ranks = comm.MaxRanks + 1 }, "message header"},
		{"ranks the placement cannot divide", func(c *Config) { c.Ranks, c.Placement = 12, topology.EightGrouped }, "12 ranks not divisible by 8 ranks/node"},
		{"ranks past the machine", func(c *Config) { c.Ranks = 1_000_000 }, "want 1000000 nodes, machine has 82944"},
		{"chunk size past int32", func(c *Config) { c.ChunkSize = math.MaxInt32 + 1 }, "chunk size"},
		{"negative event buffer", func(c *Config) { c.CollectEvents, c.EventBuffer = true, -3 }, "event buffer"},
		{"negative node cost", func(c *Config) { c.NodeCost = -1 }, "negative cost"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid()
			tc.mut(&cfg)
			for what, err := range map[string]error{"Validate": cfg.Validate(), "Run": runErr(cfg)} {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s returned %v, want an error mentioning %q", what, err, tc.want)
				}
			}
		})
	}
	// The compatible neighbours of the excluded pairs stay accepted: an
	// empty plan is no plan, and faults compose with unsharded serving.
	ok := valid()
	ok.Shards = 2
	ok.Faults = &fault.Plan{}
	if err := ok.Validate(); err != nil {
		t.Errorf("sharded run with an empty fault plan rejected: %v", err)
	}
	ok = valid()
	ok.Serve = serveTestSpec()
	ok.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: sim.Time(sim.Millisecond)}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("serving under a crash plan rejected: %v", err)
	}
}

// runErr is Run's error alone.
func runErr(cfg Config) error {
	_, err := Run(cfg)
	return err
}

func TestSingleRankMatchesSequential(t *testing.T) {
	want := seqCount(t, "T3")
	res, err := Run(Config{
		Tree:  uts.MustPreset("T3").Params,
		Ranks: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != want.Nodes || res.Leaves != want.Leaves || res.MaxDepth != want.MaxDepth {
		t.Fatalf("got %d/%d/%d, want %+v", res.Nodes, res.Leaves, res.MaxDepth, want)
	}
	if res.Premature {
		t.Fatal("single-rank run flagged premature")
	}
	// Makespan ~ sequential time (single worker, no steals).
	if res.Makespan < res.SequentialTime {
		t.Fatalf("makespan %v < sequential %v", res.Makespan, res.SequentialTime)
	}
	if res.Efficiency > 1.0 || res.Efficiency < 0.9 {
		t.Fatalf("single-rank efficiency %v", res.Efficiency)
	}
	if res.StealRequests != 0 || res.FailedSteals != 0 {
		t.Fatalf("phantom steals: %+v", res)
	}
}

func TestAllStrategiesCountCorrectly(t *testing.T) {
	want := seqCount(t, "T3")
	for name, factory := range victim.Strategies {
		for _, steal := range []StealPolicy{StealOne, StealHalf} {
			res, err := Run(Config{
				Tree:     uts.MustPreset("T3").Params,
				Ranks:    8,
				Selector: factory,
				Steal:    steal,
				Seed:     7,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, steal, err)
			}
			if res.Nodes != want.Nodes || res.Leaves != want.Leaves {
				t.Fatalf("%s/%v: counted %d nodes / %d leaves, want %d / %d",
					name, steal, res.Nodes, res.Leaves, want.Nodes, want.Leaves)
			}
			if res.MaxDepth != want.MaxDepth {
				t.Fatalf("%s/%v: depth %d, want %d", name, steal, res.MaxDepth, want.MaxDepth)
			}
			if res.Premature {
				t.Fatalf("%s/%v: premature termination with Safra", name, steal)
			}
			if res.Speedup <= 0 || res.Speedup > 8 {
				t.Fatalf("%s/%v: speedup %v", name, steal, res.Speedup)
			}
		}
	}
}

func TestAllPlacementsCountCorrectly(t *testing.T) {
	want := seqCount(t, "T3S")
	for _, p := range []topology.Placement{topology.OnePerNode, topology.EightRoundRobin, topology.EightGrouped} {
		res, err := Run(Config{
			Tree:      uts.MustPreset("T3S").Params,
			Ranks:     32,
			Placement: p,
			Selector:  victim.NewUniformRandom,
			Steal:     StealHalf,
			Seed:      11,
		})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.Nodes != want.Nodes {
			t.Fatalf("%v: %d nodes, want %d", p, res.Nodes, want.Nodes)
		}
		if res.Efficiency <= 0.2 {
			t.Fatalf("%v: efficiency %v suspiciously low at 32 ranks", p, res.Efficiency)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{
		Tree:         uts.MustPreset("T3").Params,
		Ranks:        16,
		Selector:     victim.NewDistanceSkewed,
		Steal:        StealHalf,
		Seed:         42,
		CollectTrace: true,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.FailedSteals != b.FailedSteals ||
		a.StealRequests != b.StealRequests || a.Nodes != b.Nodes ||
		a.MeanSearchTime != b.MeanSearchTime {
		t.Fatalf("same-seed runs differ:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatal("traces differ")
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	base := Config{
		Tree:     uts.MustPreset("T3").Params,
		Ranks:    16,
		Selector: victim.NewUniformRandom,
		Seed:     1,
	}
	a, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Seed = 2
	b, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if a.Nodes != b.Nodes {
		t.Fatal("node counts must not depend on the seed")
	}
	if a.Makespan == b.Makespan && a.StealRequests == b.StealRequests {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

func TestTraceIsValidAndConsistent(t *testing.T) {
	res, err := Run(Config{
		Tree:         uts.MustPreset("T3").Params,
		Ranks:        8,
		Selector:     victim.NewUniformRandom,
		Seed:         3,
		CollectTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace collected")
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Trace.End != sim.Time(res.Makespan) {
		t.Fatalf("trace end %v != makespan %v", res.Trace.End, res.Makespan)
	}
	c := obs.Occupancy(res.Trace)
	if c.Wmax() < 1 || c.Wmax() > 8 {
		t.Fatalf("Wmax = %d", c.Wmax())
	}
	mo := c.MeanOccupancy()
	if mo <= 0 || mo > 1 {
		t.Fatalf("mean occupancy %v", mo)
	}
	// Mean occupancy equals efficiency up to overheads (the busy time
	// is exactly nodes * nodeCost).
	if mo < res.Efficiency-1e-9 {
		t.Fatalf("mean occupancy %v below efficiency %v", mo, res.Efficiency)
	}
	// Sessions recorded.
	if res.Sessions == 0 || obs.Sessions(res.Trace).Count == 0 {
		t.Fatal("no work-discovery sessions recorded")
	}
	if res.MeanSessionDuration <= 0 {
		t.Fatalf("mean session duration %v", res.MeanSessionDuration)
	}
}

func TestNoTraceByDefault(t *testing.T) {
	res, err := Run(Config{Tree: uts.MustPreset("T3").Params, Ranks: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("trace collected without CollectTrace")
	}
}

func TestRingDetectorSmallRuns(t *testing.T) {
	want := seqCount(t, "T3")
	res, err := Run(Config{
		Tree:     uts.MustPreset("T3").Params,
		Ranks:    8,
		Selector: victim.NewUniformRandom,
		Detector: term.NewRing,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detector != "Ring" {
		t.Fatalf("detector %q", res.Detector)
	}
	// The ring detector may in principle fire early; if it did not,
	// counts must match. Either way the Premature flag must be accurate.
	if res.Premature {
		if res.Nodes >= want.Nodes {
			t.Fatal("flagged premature but counted everything")
		}
	} else if res.Nodes != want.Nodes {
		t.Fatalf("not premature yet counted %d of %d nodes", res.Nodes, want.Nodes)
	}
}

func TestStealHalfTransfersMoreChunks(t *testing.T) {
	mk := func(p StealPolicy) *Result {
		res, err := Run(Config{
			Tree:      uts.MustPreset("H-SMALL").Params,
			Ranks:     16,
			ChunkSize: 4,
			Selector:  victim.NewUniformRandom,
			Steal:     p,
			Seed:      9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, half := mk(StealOne), mk(StealHalf)
	if one.SuccessfulSteals == 0 || half.SuccessfulSteals == 0 {
		t.Fatal("no steals happened")
	}
	cpsOne := float64(one.ChunksTransferred) / float64(one.SuccessfulSteals)
	cpsHalf := float64(half.ChunksTransferred) / float64(half.SuccessfulSteals)
	if cpsOne > 1.0001 {
		t.Fatalf("StealOne moved %.2f chunks per steal", cpsOne)
	}
	if cpsHalf <= 1.05 {
		t.Fatalf("StealHalf moved only %.2f chunks per steal", cpsHalf)
	}
}

func TestWorkConservationUnderChunkSizes(t *testing.T) {
	want := seqCount(t, "T3")
	for _, cs := range []int{1, 4, 20, 64} {
		res, err := Run(Config{
			Tree:      uts.MustPreset("T3").Params,
			Ranks:     8,
			Selector:  victim.NewUniformRandom,
			ChunkSize: cs,
			Seed:      13,
		})
		if err != nil {
			t.Fatalf("chunk %d: %v", cs, err)
		}
		if res.Nodes != want.Nodes {
			t.Fatalf("chunk %d: %d nodes, want %d", cs, res.Nodes, want.Nodes)
		}
	}
}

func TestBackoffDisabledStillCorrect(t *testing.T) {
	want := seqCount(t, "T3")
	res, err := Run(Config{
		Tree:           uts.MustPreset("T3").Params,
		Ranks:          8,
		Selector:       victim.NewUniformRandom,
		ImmediateRetry: true,
		Seed:           17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != want.Nodes || res.Premature {
		t.Fatalf("backoff-disabled run wrong: %d nodes, premature=%v", res.Nodes, res.Premature)
	}
}

func TestUniformLatencyMakesSelectorsEquivalent(t *testing.T) {
	// Under a flat latency model the Tofu selector loses its advantage:
	// its makespan must be within noise of uniform random. This guards
	// against the selector accidentally encoding anything beyond
	// distance weighting.
	flat := &topology.UniformLatency{Fixed: 5 * sim.Microsecond}
	run := func(f victim.Factory, seed uint64) sim.Duration {
		res, err := Run(Config{
			Tree:     uts.MustPreset("T3S").Params,
			Ranks:    32,
			Selector: f,
			Latency:  flat,
			Steal:    StealHalf,
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	var randTotal, tofuTotal sim.Duration
	for seed := uint64(0); seed < 3; seed++ {
		randTotal += run(victim.NewUniformRandom, seed)
		tofuTotal += run(victim.NewDistanceSkewed, seed)
	}
	ratio := float64(tofuTotal) / float64(randTotal)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("flat-latency Tofu/Rand makespan ratio %v, want ~1", ratio)
	}
}

func TestSpeedupBoundedByRanks(t *testing.T) {
	res, err := Run(Config{
		Tree:     uts.MustPreset("T3S").Params,
		Ranks:    64,
		Selector: victim.NewDistanceSkewed,
		Steal:    StealHalf,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup > 64 {
		t.Fatalf("speedup %v exceeds rank count", res.Speedup)
	}
	if res.Speedup < 1 {
		t.Fatalf("64 ranks slower than sequential: %v", res.Speedup)
	}
	if res.Makespan < res.SequentialTime/64 {
		t.Fatal("makespan below critical-path bound")
	}
}

func TestGranularityCost(t *testing.T) {
	if GranularityCost(0) != DefaultNodeCost || GranularityCost(1) != DefaultNodeCost {
		t.Fatal("base granularity")
	}
	if GranularityCost(24) != 24*DefaultNodeCost {
		t.Fatal("scaled granularity")
	}
}

func TestCommCountersConsistent(t *testing.T) {
	res, err := Run(Config{
		Tree:     uts.MustPreset("T3").Params,
		Ranks:    8,
		Selector: victim.NewUniformRandom,
		Seed:     23,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Comm
	// Every steal request got exactly one reply.
	requests := s.SentByTag(0) // TagStealRequest
	replies := s.SentByTag(1) + s.SentByTag(2)
	if requests != replies {
		t.Fatalf("%d requests but %d replies", requests, replies)
	}
	if res.StealRequests != requests {
		t.Fatalf("engine counted %d requests, network %d", res.StealRequests, requests)
	}
	// Replies to requests outstanding at termination are dropped, so
	// the gap is bounded by one request per rank.
	answered := res.SuccessfulSteals + res.FailedSteals
	if answered > res.StealRequests {
		t.Fatalf("more answers than requests: %d > %d", answered, res.StealRequests)
	}
	if res.StealRequests-answered > uint64(res.Ranks) {
		t.Fatalf("steal accounting: %d requests, %d answered, gap > ranks",
			res.StealRequests, answered)
	}
}

func TestRoundRobinWorseAtScale(t *testing.T) {
	// The paper's headline observation, in miniature: at a few hundred
	// ranks the deterministic round-robin selection is slower and fails
	// more than uniform random selection (paper Figures 3, 6, 7).
	run := func(f victim.Factory) *Result {
		res, err := Run(Config{
			Tree:           uts.MustPreset("H-SMALL").Params,
			Ranks:          256,
			ChunkSize:      4,
			Selector:       f,
			Seed:           29,
			ImmediateRetry: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rr := run(victim.NewRoundRobin)
	rnd := run(victim.NewUniformRandom)
	if rr.FailedSteals <= rnd.FailedSteals {
		t.Fatalf("round robin failed %d <= random %d", rr.FailedSteals, rnd.FailedSteals)
	}
	if rr.Makespan <= rnd.Makespan {
		t.Fatalf("round robin makespan %v <= random %v", rr.Makespan, rnd.Makespan)
	}
}

func BenchmarkRunT3Rand16(b *testing.B) {
	cfg := Config{
		Tree:     uts.MustPreset("T3").Params,
		Ranks:    16,
		Selector: victim.NewUniformRandom,
		Steal:    StealHalf,
		Seed:     1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunT3STofu64(b *testing.B) {
	cfg := Config{
		Tree:     uts.MustPreset("T3S").Params,
		Ranks:    64,
		Selector: victim.NewDistanceSkewed,
		Steal:    StealHalf,
		Seed:     1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestImbalanceStatistics(t *testing.T) {
	res, err := Run(Config{
		Tree:      uts.MustPreset("H-TINY").Params,
		Ranks:     16,
		ChunkSize: 4,
		Selector:  victim.NewUniformRandom,
		Steal:     StealHalf,
		Seed:      41,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRankNodes < res.MinRankNodes {
		t.Fatalf("max %d < min %d", res.MaxRankNodes, res.MinRankNodes)
	}
	if res.MaxRankNodes > res.Nodes {
		t.Fatal("max rank nodes exceeds total")
	}
	mean := float64(res.Nodes) / 16
	if res.Imbalance < 1.0-1e-9 {
		t.Fatalf("imbalance %v below 1 (max %d, mean %.1f)", res.Imbalance, res.MaxRankNodes, mean)
	}
	// Single rank: perfectly "balanced" by definition.
	solo, err := Run(Config{Tree: uts.MustPreset("T3").Params, Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if solo.Imbalance != 1.0 || solo.MaxRankNodes != solo.Nodes || solo.MinRankNodes != solo.Nodes {
		t.Fatalf("solo imbalance stats wrong: %+v", solo)
	}
}
