package core

import (
	"errors"
	"reflect"
	"testing"

	"distws/internal/comm"
	"distws/internal/fault"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/trace"
	"distws/internal/uts"
	"distws/internal/victim"
)

// faultConfig is a small traced run used by the fault tests.
func faultConfig(plan *fault.Plan) Config {
	return Config{
		Tree:   uts.MustPreset("T3").Params,
		Ranks:  16,
		Seed:   7,
		Faults: plan,
	}
}

// checkAccounting asserts the fault-injection conservation law: every
// node the run materialized either completed or is booked as lost.
func checkAccounting(t *testing.T, res *Result) {
	t.Helper()
	if res.Nodes+res.LostNodes != res.NodesGenerated {
		t.Fatalf("accounting broken: completed %d + lost %d != generated %d",
			res.Nodes, res.LostNodes, res.NodesGenerated)
	}
}

// TestFaultAccountingAllSelectors runs an identical crash + straggler +
// lossy-link plan against every victim-selection policy: each surviving
// run must terminate, and completed + lost == generated must hold.
func TestFaultAccountingAllSelectors(t *testing.T) {
	want := seqCount(t, "T3")
	plan := &fault.Plan{
		Seed:       99,
		Crashes:    []fault.Crash{{Rank: 3, At: sim.Time(40 * sim.Microsecond)}, {Rank: 11, At: sim.Time(90 * sim.Microsecond)}},
		Stragglers: []fault.Straggler{{Rank: 5, Compute: 3, Send: 2}},
		Links:      []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Drop: 0.05}},
	}
	for name, factory := range victim.Strategies {
		cfg := faultConfig(plan)
		cfg.Selector = factory
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.CrashedRanks != 2 {
			t.Fatalf("%s: %d crashed ranks, want 2", name, res.CrashedRanks)
		}
		checkAccounting(t, res)
		if res.NodesGenerated > want.Nodes {
			t.Fatalf("%s: generated %d nodes from a %d-node tree", name, res.NodesGenerated, want.Nodes)
		}
		if res.Premature {
			t.Fatalf("%s: Safra run flagged premature despite loss resolution", name)
		}
		if res.Nodes == want.Nodes && res.LostNodes == 0 && res.LostMessages == 0 {
			// Possible in principle (crashes hitting empty stacks, no
			// drop ever selecting a work message) but with 5% wildcard
			// drop it would mean the plan injected nothing observable.
			if res.Comm.TotalDropped() == 0 {
				t.Fatalf("%s: the fault plan had no observable effect", name)
			}
		}
	}
}

// TestFaultRepeatDeterminism runs the same faulted configuration twice
// and requires byte-identical results: the injector draws from its own
// seeded stream, so adversity replays exactly.
func TestFaultRepeatDeterminism(t *testing.T) {
	plan := &fault.Plan{
		Seed:    4,
		Crashes: []fault.Crash{{Rank: 2, At: sim.Time(60 * sim.Microsecond)}},
		Links:   []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Drop: 0.1, Dup: 0.1}},
	}
	cfg := faultConfig(plan)
	cfg.Selector = victim.NewDistanceSkewed
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("faulted runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestEmptyPlanEquivalentToNil: an empty plan compiles to no injector
// and the run is identical to a plan-free one.
func TestEmptyPlanEquivalentToNil(t *testing.T) {
	a, err := Run(faultConfig(&fault.Plan{Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(faultConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("empty plan diverged from nil plan:\n%+v\n%+v", a, b)
	}
	if a.PerRankFaults != nil || a.CrashedRanks != 0 {
		t.Fatalf("empty plan populated fault summary: %+v", a)
	}
}

// TestCrashRankZero kills the root owner and ring initiator early: the
// initiator role must move to rank 1 and the run still terminate.
func TestCrashRankZero(t *testing.T) {
	plan := &fault.Plan{
		Crashes: []fault.Crash{{Rank: 0, At: sim.Time(30 * sim.Microsecond)}},
	}
	cfg := faultConfig(plan)
	cfg.CollectEvents = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, res)
	if !res.PerRankFaults[0].Crashed || res.PerRankFaults[0].CrashedAt != sim.Time(30*sim.Microsecond) {
		t.Fatalf("rank 0 fault row wrong: %+v", res.PerRankFaults[0])
	}
	counts := res.Trace.EventCounts()
	if int(trace.EvCrash) >= len(counts) || counts[trace.EvCrash] != 1 {
		t.Fatalf("crash not traced: %v", counts)
	}
}

// allButOneConfig kills every rank of eight except the last. All
// seven die at the same instant, before the run can finish: the engine
// removes them back-to-back (sorted by rank), healing the ring through
// seven consecutive initiator successions.
func allButOneConfig() Config {
	plan := &fault.Plan{}
	for r := 0; r < 7; r++ {
		plan.Crashes = append(plan.Crashes,
			fault.Crash{Rank: r, At: sim.Time(25 * sim.Microsecond)})
	}
	return Config{
		Tree:   uts.MustPreset("T3").Params,
		Ranks:  8,
		Seed:   3,
		Faults: plan,
	}
}

// TestAllButOneCrashed: the lone survivor must still detect termination
// (the degenerate one-rank ring), and the whole tree minus the losses
// must balance. The round count and the detection instant are pinned:
// each decision of the survivor is a round, so a survivor deciding more
// than once on one event moves the count.
func TestAllButOneCrashed(t *testing.T) {
	res, err := Run(allButOneConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashedRanks != 7 {
		t.Fatalf("%d crashed ranks, want 7", res.CrashedRanks)
	}
	checkAccounting(t, res)
	// Rounds 1-5: the crashes of ranks 1-5 each abandon a round. The
	// crash of rank 6 abandons round 6 and the survivor, idle, decides
	// round 7 with rank 0's last work message unresolved; that message
	// dies at a corpse at 27.896 µs and the survivor decides round 8.
	if res.TerminationRounds != 8 || res.Makespan != 27897 {
		t.Fatalf("%d rounds, makespan %d ns; want 8, 27897", res.TerminationRounds, int64(res.Makespan))
	}
}

// loneLossConfig leaves rank 0 alone with a work message in flight to
// a dead rank: rank 1 asks it for work and crashes at 50 µs, the
// 20 µs links deliver the reply to the corpse at 80.6 µs, and by then
// rank 0 has run out of its 49-node tree and idles.
func loneLossConfig() Config {
	tree := uts.MustPreset("T3").Params
	tree.B0 = 40
	return Config{
		Tree:    tree,
		Ranks:   2,
		Seed:    1,
		Latency: &topology.UniformLatency{Fixed: 20 * sim.Microsecond},
		Faults:  &fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: sim.Time(50 * sim.Microsecond)}}},
	}
}

// TestLoneSurvivorDecidesOnLoss: a lone survivor that idles with a work
// message still unresolved learns of its loss from nothing but
// WorkLost — no token circulates and no OnIdle is coming — and must
// detect termination on it, 1 ns after the dead letter (the broadcast
// waits for the send path the loss may have resolved in to finish).
func TestLoneSurvivorDecidesOnLoss(t *testing.T) {
	cfg := loneLossConfig()
	lossAt, idleAtLoss := sim.Time(-1), false
	cfg.testDeliveryProbe = func(e *engine, m *comm.Message) bool {
		if m.Tag == comm.TagWork && e.states[m.To] == rsCrashed {
			lossAt, idleAtLoss = e.kernel.Now(), e.states[m.From] != rsWorking
		}
		return e.deliver(m)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lossAt < 0 || !idleAtLoss {
		t.Fatalf("dead letter at %v, survivor idle %v: the configuration no longer loses work to an idle survivor", lossAt, idleAtLoss)
	}
	if res.Makespan != sim.Duration(lossAt+1) || res.Premature || res.LostMessages != 1 {
		t.Fatalf("detected at %v, premature %v, %d lost messages; want detection at %v, not premature, 1 lost",
			res.Makespan, res.Premature, res.LostMessages, lossAt+1)
	}
	checkAccounting(t, res)
}

// TestStragglerSlowsMakespan: a compute straggler on the root owner
// must strictly lengthen the run without losing any work.
func TestStragglerSlowsMakespan(t *testing.T) {
	base, err := Run(faultConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.Plan{Stragglers: []fault.Straggler{{Rank: 0, Compute: 4}}}
	slow, err := Run(faultConfig(plan))
	if err != nil {
		t.Fatal(err)
	}
	if slow.Makespan <= base.Makespan {
		t.Fatalf("straggler did not slow the run: %v <= %v", slow.Makespan, base.Makespan)
	}
	if slow.LostNodes != 0 || slow.Nodes != base.Nodes {
		t.Fatalf("straggler lost work: %+v", slow)
	}
	checkAccounting(t, slow)
}

// TestDropsRecovered: heavy control-plane loss must be survivable —
// timeouts retry, lost loot is re-counted, and the tree still balances.
func TestDropsRecovered(t *testing.T) {
	plan := &fault.Plan{
		Seed:  11,
		Links: []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Drop: 0.25}},
	}
	res, err := Run(faultConfig(plan))
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.TotalDropped() == 0 {
		t.Fatal("25% wildcard drop dropped nothing")
	}
	checkAccounting(t, res)
	if res.Premature {
		t.Fatal("Safra run flagged premature despite loss resolution")
	}
}

// TestDuplicationHarmless: duplicated control messages are absorbed by
// the request-ID protocol; no work is lost or double-counted.
func TestDuplicationHarmless(t *testing.T) {
	want := seqCount(t, "T3")
	plan := &fault.Plan{
		Seed:  12,
		Links: []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Dup: 0.3}},
	}
	res, err := Run(faultConfig(plan))
	if err != nil {
		t.Fatal(err)
	}
	var duplicated uint64
	for _, d := range res.Comm.Duplicated {
		duplicated += d
	}
	if duplicated == 0 {
		t.Fatal("30% wildcard duplication duplicated nothing")
	}
	if res.Nodes != want.Nodes || res.LostNodes != 0 {
		t.Fatalf("duplication corrupted the tree count: got %d/%d lost %d, want %d",
			res.Nodes, res.NodesGenerated, res.LostNodes, want.Nodes)
	}
	checkAccounting(t, res)
}

// TestInvalidPlanRejected: a plan referencing out-of-range ranks must
// fail Run before any event is scheduled.
func TestInvalidPlanRejected(t *testing.T) {
	plan := &fault.Plan{Crashes: []fault.Crash{{Rank: 99, At: 1000}}}
	if _, err := Run(faultConfig(plan)); err == nil {
		t.Fatal("out-of-range crash rank accepted")
	}
	all := &fault.Plan{}
	for r := 0; r < 16; r++ {
		all.Crashes = append(all.Crashes, fault.Crash{Rank: r, At: 1000})
	}
	if _, err := Run(faultConfig(all)); err == nil {
		t.Fatal("plan with no survivors accepted")
	}
}

// TestCrashRecoveryObservable: crashing a mid-run victim must surface
// in the protocol observables — a crash event, steal timeouts against
// the corpse, and (once a thief refinds work) recovery episodes.
func TestCrashRecoveryObservable(t *testing.T) {
	plan := &fault.Plan{
		Crashes: []fault.Crash{
			{Rank: 1, At: sim.Time(40 * sim.Microsecond)},
			{Rank: 2, At: sim.Time(40 * sim.Microsecond)},
		},
	}
	cfg := faultConfig(plan)
	cfg.CollectEvents = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, res)
	if res.AbortedSteals == 0 {
		t.Fatal("no steal ever timed out against the crashed ranks")
	}
	counts := res.Trace.EventCounts()
	if int(trace.EvCrash) >= len(counts) || counts[trace.EvCrash] != 2 {
		t.Fatalf("crashes not traced: %v", counts)
	}
	if int(trace.EvStealRetry) < len(counts) && counts[trace.EvStealRetry] == 0 {
		t.Fatal("timeouts retried but no retry event recorded")
	}
}

// TestTimeLimitIsATypedError: a run that cannot finish inside its
// virtual time limit — a closed tree, served jobs under crashes, a task
// graph under crashes — stops with sim.ErrTimeLimit, not a panic or a
// hang.
func TestTimeLimitIsATypedError(t *testing.T) {
	tree := faultConfig(nil)
	tree.maxVirtualTime = sim.Time(50 * sim.Microsecond)
	serving := serveFaultConfig()
	// Jobs of a few thousand nodes each are still running at the horizon.
	for i := range serving.Serve.Tenants {
		serving.Serve.Tenants[i].Work.Tree = uts.MustPreset("T3").Params
	}
	serving.maxVirtualTime = sim.Time(0).Add(serving.Serve.Horizon) + 1
	graph := graphFaultConfig(testGraph(t, 6))
	graph.maxVirtualTime = sim.Time(sim.Millisecond)
	for name, run := range map[string]func() error{
		"tree":          func() error { _, err := Run(tree); return err },
		"serve+crashes": func() error { _, err := Run(serving); return err },
		"graph+crashes": func() error { _, err := Run(graph); return err },
	} {
		if err := run(); !errors.Is(err, sim.ErrTimeLimit) {
			t.Errorf("%s: %v, want sim.ErrTimeLimit", name, err)
		}
	}
}
