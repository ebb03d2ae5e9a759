package core

import (
	"sync/atomic"
	"testing"

	"distws/internal/comm"
	"distws/internal/fault"
	"distws/internal/sim"
	"distws/internal/uts"
	"distws/internal/victim"
)

// TestIdleRankMailboxAlwaysEmpty pins the invariant the delivery hook
// rests on: at every delivery, a rank in one of the two idle states has
// no unpolled message and no deferred one, so handling the arriving
// message on the spot is handling it in mailbox order. The probe runs
// ahead of the hook on every message of every configuration below —
// the protocol variants of protocol_test.go, a crash + duplication
// fault plan, a serving run, and the sharded engine.
func TestIdleRankMailboxAlwaysEmpty(t *testing.T) {
	t3 := uts.MustPreset("T3").Params
	cases := map[string]Config{
		"two-sided": {Tree: t3, Ranks: 8, Selector: victim.NewUniformRandom, Seed: 23},
		"one-sided/steal-one": {Tree: t3, Ranks: 8, Selector: victim.NewUniformRandom,
			Steal: StealOne, Protocol: OneSided, Seed: 31},
		"one-sided/steal-half": {Tree: t3, Ranks: 8, Selector: victim.NewUniformRandom,
			Steal: StealHalf, Protocol: OneSided, Seed: 31},
		"one-sided/coarse-poll": {Tree: uts.MustPreset("H-TINY").Params, Ranks: 64, ChunkSize: 4,
			Selector: victim.NewUniformRandom, Steal: StealHalf, Protocol: OneSided, PollInterval: 50, Seed: 13},
		"aborting": {Tree: uts.MustPreset("T3S").Params, Ranks: 32, ChunkSize: 4,
			Selector: victim.NewUniformRandom, Steal: StealHalf, StealTimeout: 5 * sim.Microsecond, Seed: 17},
		"one-sided+aborting": {Tree: t3, Ranks: 16, ChunkSize: 4, Selector: victim.NewDistanceSkewed,
			Steal: StealHalf, Protocol: OneSided, StealTimeout: 10 * sim.Microsecond, Seed: 29},
		"crash+dup": faultConfig(&fault.Plan{
			Seed:    4,
			Crashes: []fault.Crash{{Rank: 2, At: sim.Time(60 * sim.Microsecond)}, {Rank: 9, At: sim.Time(90 * sim.Microsecond)}},
			Links:   []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Dup: 0.1}},
		}),
		"serving":  serveTestConfig(0),
		"shards=2": {Tree: t3, Ranks: 16, ChunkSize: 4, Selector: victim.NewDistanceSkewed, Steal: StealHalf, Shards: 2, Seed: 5},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			// Atomic: the shards of a sharded run probe concurrently.
			var consumed, declined, broken atomic.Int64
			cfg.testDeliveryProbe = func(e *engine, m *comm.Message) {
				rk := &e.ranks[m.To]
				if rk.state != rsSearching && rk.state != rsBackoff {
					declined.Add(1)
					return
				}
				consumed.Add(1)
				if e.net.Pending(m.To) || len(rk.deferred) != 0 {
					if broken.Add(1) == 1 {
						t.Errorf("%v to idle rank %d (state %d) at %v: mailbox pending %v, %d deferred",
							m.Tag, m.To, rk.state, e.kernel.Now(), e.net.Pending(m.To), len(rk.deferred))
					}
				}
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n := broken.Load(); n != 0 {
				t.Fatalf("%d deliveries found an idle rank with a backlog", n)
			}
			if consumed.Load() == 0 || declined.Load() == 0 {
				t.Fatalf("hook consumed %d and declined %d messages; the run must exercise both paths",
					consumed.Load(), declined.Load())
			}
			var received uint64
			for _, v := range res.Comm.Received {
				received += v
			}
			if got := uint64(consumed.Load() + declined.Load()); got != received {
				t.Fatalf("hook saw %d messages, the network counts %d received", got, received)
			}
		})
	}
}
