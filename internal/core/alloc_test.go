package core

import (
	"testing"

	"distws/internal/sim"
	"distws/internal/uts"
	"distws/internal/victim"
)

// TestStealTimerAllocBudget pins the closure-free engine timers: a
// 256-rank run over a tree far too small for its ranks spends its life
// in failed steals, backoff pauses and steal timeouts, so a closure per
// backoff or per armed timeout would cost one allocation per failed
// request. The budget is three times the run's set-up (per-rank state,
// selector tables, stack segments, mailboxes growing to their
// high-water marks: 1 263 allocations, 3 778 before loot travelled in
// recycled buffers); the per-request timers must add nothing to it.
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
