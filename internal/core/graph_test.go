package core

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"distws/internal/dag"
	"distws/internal/fault"
	"distws/internal/obs/causal"
	"distws/internal/sim"
	"distws/internal/term"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
)

func testGraph(t testing.TB, seed uint64) *dag.Graph {
	t.Helper()
	g, err := dag.Generate(dag.Params{
		Seed: seed, Layers: 24, WidthMean: 12, EdgesPerTask: 2,
		LocalityWindow: 2, CostMean: 20 * sim.Microsecond, DataMean: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// chainGraph is n tasks in a line: no parallelism is possible.
func chainGraph(t testing.TB, n int) *dag.Graph {
	t.Helper()
	g := &dag.Graph{Tasks: make([]dag.Task, n), Roots: []int32{0}}
	for i := range g.Tasks {
		g.Tasks[i].ID = int32(i)
		g.Tasks[i].Layer = int32(i)
		g.Tasks[i].Cost = 10 * sim.Microsecond
		g.TotalCost += g.Tasks[i].Cost
		if i > 0 {
			g.Tasks[i].Preds = []int32{int32(i - 1)}
			g.Tasks[i].PredData = []int{1024}
			g.Tasks[i-1].Succs = []int32{int32(i)}
			g.TotalBytes += 1024
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// graphConfig is the configuration the graph experiments run under:
// task-granular steals of half the victim's ready tasks.
func graphConfig(ranks int, seed uint64) Config {
	return Config{Ranks: ranks, ChunkSize: 1, Steal: StealHalf, Seed: seed}
}

// runGraphOK runs g and asserts what every graph run owes: every task
// executed exactly once, nothing left over, and a makespan between the
// critical path and what the rank count allows.
func runGraphOK(t testing.TB, cfg Config, g *dag.Graph) (*Result, *GraphStats) {
	t.Helper()
	res, gs, err := RunGraph(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Premature || res.Nodes != uint64(g.Len()) || res.NodesGenerated != res.Nodes {
		t.Fatalf("executed %d of %d tasks (%d made ready, premature %v)", res.Nodes, g.Len(), res.NodesGenerated, res.Premature)
	}
	if res.SequentialTime != g.TotalCost || gs.CriticalPath != g.CriticalPath() {
		t.Fatalf("sequential time %v, critical path %v; the graph says %v and %v",
			res.SequentialTime, gs.CriticalPath, g.TotalCost, g.CriticalPath())
	}
	if res.Makespan < gs.CriticalPath {
		t.Fatalf("makespan %v below critical path %v", res.Makespan, gs.CriticalPath)
	}
	if res.Speedup <= 0 || res.Speedup > float64(cfg.Ranks)+1e-9 {
		t.Fatalf("speedup %.2f on %d ranks", res.Speedup, cfg.Ranks)
	}
	return res, gs
}

func TestRunGraphRejects(t *testing.T) {
	g := testGraph(t, 1)
	cases := []struct {
		name string
		g    *dag.Graph
		mut  func(*Config)
		want string
	}{
		{"nil graph", nil, func(*Config) {}, "empty graph"},
		{"empty graph", &dag.Graph{}, func(*Config) {}, "empty graph"},
		{"shards", g, func(c *Config) { c.Shards = 2 }, "cannot be sharded"},
		{"serve", g, func(c *Config) { c.Serve = serveTestSpec() }, "incompatible with serving"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := graphConfig(16, 1)
			tc.mut(&cfg)
			res, gs, err := RunGraph(cfg, tc.g)
			if res != nil || gs != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunGraph returned (%v, %v, %v), want only an error mentioning %q", res, gs, err, tc.want)
			}
			// Refused before anything is built: the error value is all the
			// call may allocate (a 16-rank engine is hundreds of objects).
			if allocs := testing.AllocsPerRun(5, func() { _, _, _ = RunGraph(cfg, tc.g) }); allocs > 2 {
				t.Errorf("a refused run allocated %.0f objects", allocs)
			}
		})
	}
	// What Run rejects, RunGraph rejects the same way.
	if _, _, err := RunGraph(Config{}, g); err == nil {
		t.Error("zero ranks accepted")
	}
	// An empty plan is no plan, and a structurally broken graph is
	// refused instead of run short.
	cfg := graphConfig(4, 1)
	cfg.Faults = &fault.Plan{}
	runGraphOK(t, cfg, g)
	broken := chainGraph(t, 3)
	broken.Tasks[1].Succs = nil
	if _, _, err := RunGraph(graphConfig(4, 1), broken); err == nil || !strings.Contains(err.Error(), "not mirrored") {
		t.Errorf("broken graph: %v", err)
	}
}

func TestGraphSingleRankExecutesEverything(t *testing.T) {
	g := testGraph(t, 2)
	res, gs := runGraphOK(t, graphConfig(1, 1), g)
	// One rank, no fetches, no steals: makespan == total cost.
	if res.Makespan != g.TotalCost {
		t.Fatalf("makespan %v != total cost %v on one rank", res.Makespan, g.TotalCost)
	}
	if gs.BytesFetched != 0 || gs.FetchTime != 0 || gs.TasksStolen != 0 || res.StealRequests != 0 {
		t.Fatalf("phantom communication: %+v, %d steal requests", gs, res.StealRequests)
	}
}

func TestGraphParallelCompletesAndRespectsBounds(t *testing.T) {
	g := testGraph(t, 3)
	for _, ranks := range []int{2, 8, 32} {
		runGraphOK(t, graphConfig(ranks, 7), g)
	}
}

// TestGraphChainHasNoSpeedup: a chain runs one task at a time wherever
// its tasks migrate to, so no rank count buys anything.
func TestGraphChainHasNoSpeedup(t *testing.T) {
	res, _ := runGraphOK(t, graphConfig(4, 1), chainGraph(t, 10))
	if res.Speedup > 1.01 {
		t.Fatalf("chain achieved speedup %.2f", res.Speedup)
	}
}

// TestGraphDependenciesRespected watches a run from the inside, one
// kernel event at a time: no task may start before the completion
// instant of each of its predecessors, every quantum is at least as
// long as its task, and every task starts and completes once.
func TestGraphDependenciesRespected(t *testing.T) {
	for _, proto := range []Protocol{TwoSided, OneSided} {
		g := testGraph(t, 4)
		cfg := graphConfig(8, 5)
		cfg.Protocol, cfg.Selector = proto, victim.NewUniformRandom
		cfg = cfg.withDefaults()
		job, err := topology.NewJob(cfg.Machine, cfg.Ranks, cfg.Placement)
		if err != nil {
			t.Fatal(err)
		}
		k := sim.NewKernel()
		w, err := newGraphWork(g)
		if err != nil {
			t.Fatal(err)
		}
		gw := w.(*graphWork)
		engines, err := newEngines(cfg, job, []*sim.Kernel{k}, nil, w, new(runStore))
		if err != nil {
			t.Fatal(err)
		}
		e := engines[0]
		started := make([]sim.Time, g.Len())
		done := make([]sim.Time, g.Len())
		for i := range started {
			started[i], done[i] = -1, -1
		}
		current := make([]int32, cfg.Ranks) // the task each rank was last seen executing
		quantum := make([]sim.Event, cfg.Ranks)
		for r := range current {
			current[r] = -1
		}
		observe := func() {
			now := k.Now()
			for r := range e.ranks {
				if c := current[r]; c >= 0 && done[c] < 0 && gw.executor[c] >= 0 {
					done[c] = now
					if int(gw.executor[c]) != r {
						t.Fatalf("task %d ran on rank %d, booked to %d", c, r, gw.executor[c])
					}
				}
				var q sim.Event
				if w := e.ranks[r].w; w != nil {
					q = w.quantum
				}
				if q == quantum[r] || !k.Live(q) {
					continue
				}
				quantum[r] = q
				task := gw.running[r]
				if started[task] >= 0 {
					t.Fatalf("task %d started twice", task)
				}
				started[task], current[r] = now, task
				if end, _ := k.When(q); end.Sub(now) < g.Tasks[task].Cost {
					t.Fatalf("task %d: quantum of %v for a cost of %v", task, end.Sub(now), g.Tasks[task].Cost)
				}
			}
		}
		observe() // the roots start at t = 0, before the first event
		for k.Step() {
			observe()
		}
		k.Release()
		for i := range g.Tasks {
			if started[i] < 0 || done[i] < started[i] {
				t.Fatalf("%v: task %d started at %v, completed at %v", proto, i, started[i], done[i])
			}
			for _, pred := range g.Tasks[i].Preds {
				if started[i] < done[pred] {
					t.Fatalf("%v: task %d started at %v, before predecessor %d completed at %v",
						proto, i, started[i], pred, done[pred])
				}
			}
		}
		if !e.detected {
			t.Fatalf("%v: the run ended undetected", proto)
		}
	}
}

func TestGraphDeterminism(t *testing.T) {
	g := testGraph(t, 5)
	cfg := graphConfig(16, 11)
	cfg.Selector = victim.NewDistanceSkewed
	a, as := runGraphOK(t, cfg, g)
	b, bs := runGraphOK(t, cfg, g)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(as, bs) {
		t.Fatalf("same-seed runs differ:\n%+v %+v\n%+v %+v", a, as, b, bs)
	}
}

func TestGraphStealingMovesTasks(t *testing.T) {
	res, gs := runGraphOK(t, graphConfig(16, 3), testGraph(t, 9))
	if res.SuccessfulSteals == 0 || gs.TasksStolen == 0 {
		t.Fatalf("no stealing on 16 ranks: %d steals, %+v", res.SuccessfulSteals, gs)
	}
	if gs.BytesFetched == 0 {
		t.Fatal("no data fetched despite cross-rank dependencies")
	}
	if gs.FetchTime == 0 {
		t.Fatal("fetches cost no time")
	}
}

func TestGraphAllSelectorsComplete(t *testing.T) {
	g := testGraph(t, 13)
	for name, factory := range victim.Strategies {
		t.Run(name, func(t *testing.T) {
			cfg := graphConfig(8, 17)
			cfg.Selector = factory
			runGraphOK(t, cfg, g)
		})
	}
}

func TestGraphPlacements(t *testing.T) {
	g := testGraph(t, 15)
	for _, pl := range []topology.Placement{topology.OnePerNode, topology.EightRoundRobin, topology.EightGrouped} {
		cfg := graphConfig(16, 19)
		cfg.Placement = pl
		runGraphOK(t, cfg, g)
	}
}

// TestGraphPropertyScheduleCorrectness generates random small graphs
// and random engine configurations and asserts the invariants every
// schedule must satisfy (runGraphOK), under both protocols and both
// steal amounts.
func TestGraphPropertyScheduleCorrectness(t *testing.T) {
	selectors := []victim.Factory{
		victim.NewRoundRobin, victim.NewUniformRandom, victim.NewDistanceSkewed,
	}
	f := func(gseed uint64, layersRaw, widthRaw, ranksRaw, selRaw, chunkRaw uint8, half, oneSided bool, sseed uint64) bool {
		g, err := dag.Generate(dag.Params{
			Seed:   gseed,
			Layers: int(layersRaw%10) + 1, WidthMean: int(widthRaw%6) + 1,
			EdgesPerTask: 1.5, LocalityWindow: 2,
			CostMean: 5 * sim.Microsecond, DataMean: 512,
		})
		if err != nil {
			return false
		}
		cfg := Config{
			Ranks: int(ranksRaw%12) + 1, ChunkSize: int(chunkRaw%3) + 1,
			Selector: selectors[int(selRaw)%len(selectors)], Seed: sseed,
		}
		if half {
			cfg.Steal = StealHalf
		}
		if oneSided {
			cfg.Protocol = OneSided
		}
		runGraphOK(t, cfg, g)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestGraphRunIsObservable: a graph run is an engine run, so everything
// built on the trace applies to it unchanged — the event log validates,
// idle blame partitions every rank's time, the causal graph has a
// critical path — and a detector that can fire early is caught.
func TestGraphRunIsObservable(t *testing.T) {
	g := testGraph(t, 6)
	cfg := graphConfig(16, 9)
	cfg.CollectEvents, cfg.StealTimeout = true, 20*sim.Microsecond
	res, _ := runGraphOK(t, cfg, g)
	if err := res.Trace.Validate(); err != nil {
		t.Fatalf("trace: %v", err)
	}
	if res.AbortedSteals == 0 {
		t.Fatal("no steal timed out; the timeout path went untested")
	}
	an := causal.Analyze(res.Trace)
	for r, rb := range an.Blame().PerRank {
		if rb.Total() != res.Makespan || rb.Busy < 0 || rb.Idle() < 0 {
			t.Fatalf("rank %d: busy %v + blamed idle %v != makespan %v", r, rb.Busy, rb.Idle(), res.Makespan)
		}
	}
	if p := an.Path(); len(p.Segments) == 0 || p.Total != res.Makespan {
		t.Fatalf("critical path of %d segments covers %v of a %v makespan", len(p.Segments), p.Total, res.Makespan)
	}

	// The Ring detector can fire with a steal reply in flight. Its run is
	// then short, and must say so.
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := graphConfig(8, seed)
		cfg.Detector, cfg.Selector = term.NewRing, victim.NewUniformRandom
		res, _, err := RunGraph(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		if complete := res.Nodes == uint64(g.Len()); complete == res.Premature {
			t.Fatalf("seed %d: %d of %d tasks ran, premature %v", seed, res.Nodes, g.Len(), res.Premature)
		}
	}
}

// hastyDetector declares termination the first time a rank goes idle.
type hastyDetector struct {
	openDetector
	fired bool
}

func (d *hastyDetector) OnIdle(int) []term.Send { d.fired = true; return nil }
func (d *hastyDetector) Terminated() bool       { return d.fired }

// TestGraphEarlyDetectionIsFlagged: when the detector fires early, the
// tasks that never ran are on a stack, in a steal reply, or behind one
// that is — so the short run is flagged.
func TestGraphEarlyDetectionIsFlagged(t *testing.T) {
	g := testGraph(t, 6)
	cfg := graphConfig(8, 9)
	cfg.Detector = func(int) term.Detector { return &hastyDetector{} }
	res, _, err := RunGraph(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes >= uint64(g.Len()) || !res.Premature {
		t.Fatalf("%d of %d tasks ran, premature %v; want a short run, flagged", res.Nodes, g.Len(), res.Premature)
	}
}

// TestGraphRunLeavesUTSAlone: the two workloads share an engine, not
// state — a tree run reports the same bytes before and after a graph
// run in the same process.
func TestGraphRunLeavesUTSAlone(t *testing.T) {
	cfg := Config{Tree: uts.MustPreset("T3").Params, Ranks: 8, Selector: victim.NewUniformRandom, Seed: 23}
	before := variantDigest(t, cfg)
	runGraphOK(t, graphConfig(8, 23), testGraph(t, 8))
	if after := variantDigest(t, cfg); after != before {
		t.Fatalf("tree run digest %s before a graph run, %s after", before, after)
	}
}

func BenchmarkGraphSchedule(b *testing.B) {
	g := testGraph(b, 21)
	cfg := graphConfig(32, 1)
	cfg.Selector = victim.NewDistanceSkewed
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunGraph(cfg, g); err != nil {
			b.Fatal(err)
		}
	}
}

// graphFaultConfig runs a graph under two crashes and a lossy link, so
// tasks die on a crashed stack and in its running quantum, in dropped
// loot, and orphaned by a predecessor whose output died with its rank.
func graphFaultConfig() Config {
	cfg := graphConfig(16, 9)
	cfg.Faults = &fault.Plan{
		Seed: 5,
		Crashes: []fault.Crash{
			{Rank: 0, At: sim.Time(1200 * sim.Microsecond)},
			{Rank: 7, At: sim.Time(1450 * sim.Microsecond)},
		},
		Links: []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Drop: 0.05}},
	}
	return cfg
}

// TestGraphUnderCrashes: a task graph composes with a fault plan. The
// lost tasks are booked as lost nodes; the tasks that never ran are
// exactly the lost ones and everything downstream of them; and the run
// replays identically.
func TestGraphUnderCrashes(t *testing.T) {
	g := testGraph(t, 6)
	res, w, err := run(graphFaultConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	gw := w.(*graphWork)
	gs := &gw.stats
	if res.Nodes+res.LostNodes != res.NodesGenerated || gs.LostTasks != res.LostNodes || res.Premature {
		t.Fatalf("executed %d + lost %d of %d ready tasks, %d booked lost, premature %v",
			res.Nodes, res.LostNodes, res.NodesGenerated, gs.LostTasks, res.Premature)
	}
	// The downstream closure of the lost tasks.
	closure := make([]bool, g.Len())
	var visit func(int32)
	visit = func(t int32) {
		if !closure[t] {
			closure[t] = true
			for _, s := range g.Tasks[t].Succs {
				visit(s)
			}
		}
	}
	for task, ex := range gw.executor {
		if ex == lostTask {
			visit(int32(task))
		}
	}
	for task, ex := range gw.executor {
		if ran := ex >= 0; ran == closure[task] {
			t.Fatalf("task %d: ran %v, downstream of a lost task %v", task, ran, closure[task])
		}
	}
	// Pinned for this seed: a change to what a fault destroys moves them.
	if res.Nodes != 224 || res.LostNodes != 6 || gs.LostTasks != 6 {
		t.Errorf("executed %d, lost %d nodes and %d tasks", res.Nodes, res.LostNodes, gs.LostTasks)
	}
	again, gs2, err := RunGraph(graphFaultConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) || !reflect.DeepEqual(gs, gs2) {
		t.Fatalf("same-seed runs differ:\n%+v %+v\n%+v %+v", res, gs, again, gs2)
	}
}
