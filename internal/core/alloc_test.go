package core

import (
	"runtime"
	"testing"

	"distws/internal/sim"
	"distws/internal/uts"
	"distws/internal/victim"
)

// TestStealTimerAllocBudget pins the closure-free engine timers: a
// 256-rank run over a tree far too small for its ranks spends its life
// in failed steals, backoff pauses and steal timeouts, so a closure per
// backoff or per armed timeout would cost one allocation per failed
// request. The budget is three times the run's set-up from a fresh run
// store (per-rank state, selector tables, stack segments, mailboxes
// growing to their high-water marks: 1 263 allocations, 3 778 before
// loot travelled in recycled buffers; about 380 from a reused store);
// the per-request timers must add nothing to it.
func TestStealTimerAllocBudget(t *testing.T) {
	cfg := Config{
		Tree:         uts.MustPreset("H-TINY").Params,
		Ranks:        256,
		ChunkSize:    4,
		Selector:     victim.NewDistanceSkewed,
		Steal:        StealHalf,
		StealTimeout: 20 * sim.Microsecond,
		Seed:         41,
	}
	var res *Result
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if res, err = Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if res.FailedSteals+res.AbortedSteals < 20_000 || res.AbortedSteals == 0 {
		t.Fatalf("run is not timer-heavy: %d failed, %d aborted steals", res.FailedSteals, res.AbortedSteals)
	}
	const budget = 4_000
	t.Logf("%.0f allocs/run, %d failed and %d aborted steals", allocs, res.FailedSteals, res.AbortedSteals)
	if allocs > budget {
		t.Fatalf("%.0f allocs/run over the %d budget (%d failed, %d aborted steals): a per-request timer allocates again",
			allocs, budget, res.FailedSteals, res.AbortedSteals)
	}
}

// TestIdleRankAllocBudget holds what a rank that never works costs a
// run: on a tree too small to steal from — a root with three leaf
// children, chunk size 4 — only rank 0 ever holds a node, so the bytes
// one run at 8192 ranks allocates beyond one at 4096, per extra rank,
// are the price of a pure thief (its rank, its mailbox, its selector
// stream, its share of the placed job and of the detector). Both sizes
// are above sample.MaxOutcomes, so no per-thief alias table enters the
// difference. A per-rank field that belongs in the worker, or a
// coordinate array back in the job, breaks the budget.
func TestIdleRankAllocBudget(t *testing.T) {
	run := func(ranks int) uint64 {
		cfg := Config{
			Tree:      uts.Params{Type: uts.Binomial, RootSeed: 1, B0: 3},
			Ranks:     ranks,
			ChunkSize: 4,
			Selector:  victim.NewDistanceSkewed,
			Steal:     StealHalf,
			Seed:      1,
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Nodes != 4 || res.SuccessfulSteals != 0 {
			t.Fatalf("%d ranks: %d nodes, %d successful steals; want 4 and none", ranks, res.Nodes, res.SuccessfulSteals)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	const small, large, budget = 4096, 8192, 300
	run(small)
	run(large)
	perRank := float64(run(large)-run(small)) / (large - small)
	t.Logf("%.0f bytes per idle rank", perRank)
	if perRank > budget {
		t.Fatalf("%.0f bytes per idle rank, over the %d budget", perRank, budget)
	}
}
