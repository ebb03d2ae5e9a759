package distws

// One benchmark per table and figure of the paper, plus the ablations.
// Each bench regenerates its experiment's data at Quick scale and fails
// if a shape check regresses, so `go test -bench=.` doubles as a
// reproduction smoke of every figure. The Default/Full-scale data in
// EXPERIMENTS.md comes from cmd/experiments.

import (
	"fmt"
	"io"
	"testing"

	"distws/internal/core"
	"distws/internal/fault"
	"distws/internal/harness"
	"distws/internal/obs"
	"distws/internal/obs/causal"
	"distws/internal/obs/ledger"
	"distws/internal/rt"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
)

// benchExperiment runs a registered experiment b.N times at Quick scale.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(harness.Quick, 12345)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range rep.Checks {
			if !c.Pass {
				b.Fatalf("%s shape check failed: %s (%s)", id, c.Desc, c.Detail)
			}
		}
	}
}

func BenchmarkTableITreeGen(b *testing.B)            { benchExperiment(b, "table1") }
func BenchmarkFig02ReferenceEfficiency(b *testing.B) { benchExperiment(b, "fig02") }
func BenchmarkFig03ReferenceSpeedup(b *testing.B)    { benchExperiment(b, "fig03") }
func BenchmarkFig04LatencySmall(b *testing.B)        { benchExperiment(b, "fig04") }
func BenchmarkFig05LatencyLarge(b *testing.B)        { benchExperiment(b, "fig05") }
func BenchmarkFig06RandomSpeedup(b *testing.B)       { benchExperiment(b, "fig06") }
func BenchmarkFig07FailedSteals(b *testing.B)        { benchExperiment(b, "fig07") }
func BenchmarkFig08SkewedPDF(b *testing.B)           { benchExperiment(b, "fig08") }
func BenchmarkFig09TofuSpeedup(b *testing.B)         { benchExperiment(b, "fig09") }
func BenchmarkFig10Discovery(b *testing.B)           { benchExperiment(b, "fig10") }
func BenchmarkFig11HalfSpeedup(b *testing.B)         { benchExperiment(b, "fig11") }
func BenchmarkFig12StartLatency(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13EndLatency(b *testing.B)          { benchExperiment(b, "fig13") }
func BenchmarkFig14SearchTime(b *testing.B)          { benchExperiment(b, "fig14") }
func BenchmarkFig15FailedStealsHalf(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkFig16Granularity(b *testing.B)         { benchExperiment(b, "fig16") }

func BenchmarkAblationChunkSize(b *testing.B)    { benchExperiment(b, "ablation-chunk") }
func BenchmarkAblationPollInterval(b *testing.B) { benchExperiment(b, "ablation-poll") }
func BenchmarkAblationSelectors(b *testing.B)    { benchExperiment(b, "ablation-selectors") }
func BenchmarkAblationTermination(b *testing.B)  { benchExperiment(b, "ablation-term") }
func BenchmarkAblationSkewExponent(b *testing.B) { benchExperiment(b, "ablation-skew") }
func BenchmarkAblationBackoff(b *testing.B)      { benchExperiment(b, "ablation-backoff") }
func BenchmarkAblationProtocol(b *testing.B)     { benchExperiment(b, "ablation-protocol") }
func BenchmarkAblationAborts(b *testing.B)       { benchExperiment(b, "ablation-aborts") }
func BenchmarkAblationJitter(b *testing.B)       { benchExperiment(b, "ablation-jitter") }
func BenchmarkExtensionDAG(b *testing.B)         { benchExperiment(b, "ext-dag") }
func BenchmarkChaos(b *testing.B)                { benchExperiment(b, "chaos") }

// BenchmarkSimulatorThroughput measures raw simulation speed — tree
// nodes processed per wall second by whole core.Run calls — at three
// machine sizes: an experiment-sweep cell, the closed 1024-rank runs,
// and the paper's top rung, which is the repository benchmark's
// steal-8k configuration (bench/workloads.go) and so the one to profile
// when that workload moves: `make profile`.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, ranks := range []int{64, 1024, 8192} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			cfg := core.Config{
				Tree:      uts.MustPreset("H-TINY").Params,
				Ranks:     ranks,
				Placement: topology.OnePerNode,
				Selector:  victim.NewDistanceSkewed,
				Steal:     core.StealHalf,
				ChunkSize: 4,
				Seed:      1,
			}
			b.ReportAllocs()
			var nodes uint64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				nodes += res.Nodes
			}
			b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}

// BenchmarkObservability measures what instrumentation costs the
// simulator: the same run with recording off, with the activity trace,
// with the protocol event log, and with the metrics registry on top.
// The observer-effect test guarantees identical results across these;
// this bench quantifies the wall-clock price of each layer.
func BenchmarkObservability(b *testing.B) {
	base := core.Config{
		Tree:      uts.MustPreset("H-TINY").Params,
		Ranks:     64,
		Selector:  victim.NewDistanceSkewed,
		Steal:     core.StealHalf,
		ChunkSize: 4,
		Seed:      1,
	}
	variants := []struct {
		name string
		mod  func(*core.Config)
	}{
		{"disabled", func(*core.Config) {}},
		{"trace", func(c *core.Config) { c.CollectTrace = true }},
		{"events", func(c *core.Config) { c.CollectEvents = true }},
		{"events+metrics", func(c *core.Config) {
			c.CollectEvents = true
			c.Metrics = obs.NewRegistry()
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := base
			v.mod(&cfg)
			b.ReportAllocs()
			var nodes uint64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				nodes += res.Nodes
			}
			b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
	// pipeline-1024 repeats the timed region of the repository
	// benchmark's observed-1k workload (bench/measure.go), so that
	// `make profile BENCH=Observability/pipeline-1024` profiles it
	// without editing bench/.
	b.Run("pipeline-1024", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := observedPipeline(1024); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// observedPipeline is one rep of the observed-1k workload at the given
// rank count: the run with the event log and a fresh registry on, then
// the causal graph, critical path, idle blame, a validated run manifest
// and the JSONL export.
func observedPipeline(ranks int) (*core.Result, error) {
	cfg := core.Config{
		Tree:          uts.MustPreset("H-TINY").Params,
		Ranks:         ranks,
		Placement:     topology.OnePerNode,
		Selector:      victim.NewDistanceSkewed,
		Steal:         core.StealHalf,
		ChunkSize:     4,
		Seed:          1,
		CollectEvents: true,
		Metrics:       obs.NewRegistry(),
	}
	res, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	_ = causal.CriticalPath(causal.Build(res.Trace))
	_ = causal.AttributeIdle(res.Trace)
	if err := ledger.FromRun("H-TINY", ledger.SpecFromConfig("H-TINY", "bench", cfg), res).Validate(); err != nil {
		return nil, err
	}
	return res, res.Trace.WriteJSONL(io.Discard)
}

// TestObservedPipelineAllocBudget pins what analysing an observed run
// allocates: 256 ranks leave ~32 000 steal sends in the log, and an
// analysis that files each of them in a map, or groups events by peer
// in per-rank maps, pays by the send (as causal.Build did: 34 066
// allocations here). The budget is the 13 296 measured plus a quarter.
func TestObservedPipelineAllocBudget(t *testing.T) {
	var res *core.Result
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if res, err = observedPipeline(256); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs/run, %d steal requests", allocs, res.StealRequests)
	const budget = 16_600
	if allocs > budget {
		t.Fatalf("%.0f allocs/run over the %d budget (%d steal requests): the analysis allocates by the event again",
			allocs, budget, res.StealRequests)
	}
}

// BenchmarkFaultInjection measures what the fault subsystem costs the
// simulator. nil-plan is the zero-overhead fast path (no injector, no
// interposer — the golden test proves it is also bit-identical);
// crashes compiles an injector but needs no interposer; lossy
// interposes on every send for drop/dup draws plus timeout recovery.
func BenchmarkFaultInjection(b *testing.B) {
	base := core.Config{
		Tree:      uts.MustPreset("H-TINY").Params,
		Ranks:     64,
		Selector:  victim.NewDistanceSkewed,
		Steal:     core.StealHalf,
		ChunkSize: 4,
		Seed:      1,
	}
	// Crash times sit at ~15% and ~40% of the fault-free 2.16ms makespan.
	crashes := []fault.Crash{
		{Rank: 16, At: sim.Time(300 * sim.Microsecond)},
		{Rank: 48, At: sim.Time(800 * sim.Microsecond)},
	}
	variants := []struct {
		name string
		plan *fault.Plan
	}{
		{"nil-plan", nil},
		{"crashes", &fault.Plan{Seed: 1, Crashes: crashes,
			Stragglers: []fault.Straggler{{Rank: 8, Compute: 2}}}},
		{"lossy", &fault.Plan{Seed: 1, Crashes: crashes,
			Links: []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Drop: 0.03, Dup: 0.02}}}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := base
			cfg.Faults = v.plan
			b.ReportAllocs()
			var nodes uint64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if v.plan != nil && res.Nodes+res.LostNodes != res.NodesGenerated {
					b.Fatalf("accounting broken: %d+%d != %d", res.Nodes, res.LostNodes, res.NodesGenerated)
				}
				nodes += res.Nodes
			}
			b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}

// BenchmarkQueueDesigns compares the two shared-memory queue designs —
// the UTS chunked stack (mutex) and the Chase–Lev lock-free deque the
// paper's §VI cites — on the same workload.
func BenchmarkQueueDesigns(b *testing.B) {
	tree := uts.MustPreset("H-TINY").Params
	for _, q := range []rt.Queue{rt.Chunked, rt.ChaseLev} {
		b.Run(q.String(), func(b *testing.B) {
			b.ReportAllocs()
			var nodes uint64
			for i := 0; i < b.N; i++ {
				res, err := rt.Run(rt.Config{Tree: tree, Queue: q, Selector: rt.Random, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				nodes += res.Nodes
			}
			b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}

// BenchmarkSharedMemoryRuntime measures the real goroutine runtime's
// wall-clock traversal rate on this machine.
func BenchmarkSharedMemoryRuntime(b *testing.B) {
	cfg := rt.Config{
		Tree:      uts.MustPreset("H-SMALL").Params,
		Selector:  rt.RingSkewed,
		StealHalf: true,
		Seed:      1,
	}
	b.ReportAllocs()
	var nodes uint64
	for i := 0; i < b.N; i++ {
		res, err := rt.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		nodes += res.Nodes
	}
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
}
