package core

import (
	"testing"

	"distws/internal/comm"
	"distws/internal/sim"
	"distws/internal/term"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
)

// BenchmarkFailedSteal measures the round trip the paper's top rung
// spends its life in (Figure 7): at 8192 ranks, every one idle and every
// stack empty, a thief's request is delivered and answered NoWork, and
// the reply is delivered and answered with the next request — two
// events through deliver, handle and sendSteal, with a victim draw and
// two latency lookups. Backoff is off, so each rank always has exactly
// one message in flight and an op is exactly two dispatches; no
// detector ever ends the storm. The traffic visits the ranks at random:
// a delivery and an idle victim's answer read the victim's byte of the
// 8 KB state slab, and the thief's reply path the first line of its
// rank in the 1 MB rank slab, so what this reads is the cache-line
// budget of DESIGN.md §10. It must not allocate after warm-up.
func BenchmarkFailedSteal(b *testing.B) {
	cfg := Config{
		Tree:           uts.MustPreset("H-TINY").Params,
		Ranks:          8192,
		Placement:      topology.OnePerNode,
		Selector:       victim.NewDistanceSkewed,
		Steal:          StealHalf,
		ChunkSize:      4,
		Seed:           1,
		Detector:       func(int) term.Detector { return openDetector{} },
		ImmediateRetry: true,
	}.withDefaults()
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	job, err := topology.NewJob(topology.KComputer(), cfg.Ranks, cfg.Placement)
	if err != nil {
		b.Fatal(err)
	}
	k := sim.NewKernel()
	engines, err := newEngines(cfg, job, []*sim.Kernel{k}, nil, treeWork{}, new(runStore))
	if err != nil {
		b.Fatal(err)
	}
	// newEngines gave rank 0 the root and a first quantum; take both away
	// so that it joins the search with nothing to give.
	e, w := engines[0], engines[0].ranks[0].w
	k.Cancel(w.quantum)
	w.quantum = sim.Event{}
	w.stack.Drop(nil)
	w.expNext, w.expTotal = 0, 0
	e.goIdle(0)

	roundTrips := func(n int) {
		for i := 0; i < 2*n; i++ {
			if !k.Step() {
				b.Fatal("the steal storm died out")
			}
		}
	}
	roundTrips(4 * cfg.Ranks) // pool, arena and every thief's first draw
	before := e.net.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	roundTrips(b.N)
	b.StopTimer()
	after := e.net.Stats()
	// Each dispatch answers one message with one message, so the replies
	// sent can differ from b.N by at most the messages in flight.
	if off := int(after.SentByTag(comm.TagNoWork)-before.SentByTag(comm.TagNoWork)) - b.N; off < -cfg.Ranks || off > cfg.Ranks {
		b.Fatalf("NoWork replies differ from the %d round trips by %d: not the steady state this benchmark assumes", b.N, off)
	}
}
