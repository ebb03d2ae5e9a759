package harness

import (
	"fmt"
	"reflect"

	"distws/internal/core"
	"distws/internal/fault"
	"distws/internal/sim"
)

// The chaos experiment subjects every victim-selection policy to one
// identical, fully deterministic fault plan — fail-stop crashes, a
// compute straggler, and a lossy wildcard link — and tabulates how much
// each policy degrades relative to its own fault-free baseline. The
// paper's Fig. 9 ranks the policies on a healthy machine; chaos asks
// whether that ranking survives adversity (EXPERIMENTS.md).

func init() {
	register(Experiment{ID: "chaos", Title: "C1: policy degradation under an identical fault plan", Run: runChaos})
}

// chaosVariants are the policies compared under faults: the paper's
// reference, both random flavors, and both Tofu flavors.
var chaosVariants = []Variant{Reference, Rand, RandHalf, Tofu, TofuHalf}

// chaosPlan builds the shared fault plan from a calibration makespan:
// three spread-out ranks fail at 8%, 15% and 25% of the fault-free
// run, one early rank computes 3x slower, and every link drops 3% of
// its messages. Times derive from the calibration run, so the plan
// scales with the grid while staying a pure function of (scale, seed).
// The fractions sit early because crashes destroy work: a faulted run
// can finish well before the fault-free makespan, and a crash
// scheduled after termination never fires.
func chaosPlan(ranks int, calibrated sim.Duration, seed uint64) *fault.Plan {
	at := func(frac float64) sim.Time {
		return sim.Time(float64(calibrated) * frac)
	}
	return &fault.Plan{
		Seed: seed ^ 0xc4a05,
		Crashes: []fault.Crash{
			{Rank: ranks / 4, At: at(0.08)},
			{Rank: ranks / 2, At: at(0.15)},
			{Rank: 3 * ranks / 4, At: at(0.25)},
		},
		Stragglers: []fault.Straggler{{Rank: ranks / 8, Compute: 3}},
		Links:      []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Drop: 0.03}},
	}
}

// goodput is the efficiency measure the chaos tables use: completed
// work per rank-second of wall time. Result.Efficiency divides the
// whole tree's sequential time by the makespan, which rewards a crash
// for destroying work (less tree to finish, earlier termination);
// goodput only credits nodes that actually completed.
func goodput(nodes uint64, nodeCost sim.Duration, ranks int, makespan sim.Duration) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(nodes) * float64(nodeCost) / (float64(ranks) * float64(makespan))
}

func runChaos(scale *Scale, seed uint64) (*Report, error) {
	ranks, tree := scale.ablationRanks, scale.ablationTree

	// Calibrate: one fault-free Reference run fixes the crash schedule
	// for every policy, so all policies face the same absolute times.
	cal, err := Execute([]core.Config{Reference.Config(ranks, tree, seed)})
	if err != nil {
		return nil, err
	}
	plan := chaosPlan(ranks, cal[0].Makespan, seed)

	var cfgs []core.Config
	for _, v := range chaosVariants {
		base := v.Config(ranks, tree, seed)
		faulted := base
		faulted.Faults = plan
		cfgs = append(cfgs, base, faulted)
	}
	res, err := Execute(cfgs)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID: "chaos",
		Title: fmt.Sprintf("C1: degradation under crashes+straggler+loss (%d ranks, crashes at 8/15/25%% of %v)",
			ranks, cal[0].Makespan),
		Paper: "Extends Fig. 9: does the victim-policy ranking survive fail-stop crashes and loss?",
	}
	t := &Table{
		Title: "Per-policy degradation under the identical fault plan",
		Columns: []string{"variant", "base makespan", "chaos makespan", "base goodput",
			"chaos goodput", "retained", "crashes", "lost nodes", "recoveries", "regens"},
	}

	allAccounted, allTerminated := true, true
	crashesLanded, dropsSeen := true, false
	var baseSum, chaosSum float64
	for i := 0; i < len(res); i += 2 {
		b, f := res[i], res[i+1]
		bg := goodput(b.Nodes, core.DefaultNodeCost, ranks, b.Makespan)
		fg := goodput(f.Nodes, core.DefaultNodeCost, ranks, f.Makespan)
		baseSum += bg
		chaosSum += fg
		retained := 0.0
		if bg > 0 {
			retained = fg / bg
		}
		t.Rows = append(t.Rows, []string{
			chaosVariants[i/2].Name, fmtDur(b.Makespan), fmtDur(f.Makespan),
			fmtFloat(bg, 3), fmtFloat(fg, 3), fmtFloat(retained, 3),
			fmt.Sprintf("%d/%d", f.CrashedRanks, len(plan.Crashes)),
			fmt.Sprintf("%d", f.LostNodes), fmt.Sprintf("%d", f.Recoveries),
			fmt.Sprintf("%d", f.TokenRegens),
		})
		if f.Nodes+f.LostNodes != f.NodesGenerated {
			allAccounted = false
		}
		if f.Premature {
			allTerminated = false
		}
		// Every crash scheduled inside the run's actual lifetime must
		// land; a crash scheduled past termination legitimately never
		// fires (the run ended — there is no rank left to kill).
		due := 0
		for _, c := range plan.Crashes {
			if sim.Duration(c.At) < f.Makespan {
				due++
			}
		}
		if f.CrashedRanks != due || due == 0 {
			crashesLanded = false
		}
		if f.Comm.TotalDropped() > 0 {
			dropsSeen = true
		}
	}
	rep.Tables = append(rep.Tables, t)

	rep.Checks = append(rep.Checks,
		ShapeCheck{
			Desc:   "every faulted run terminates cleanly with exact loss accounting (completed + lost == generated)",
			Pass:   allAccounted && allTerminated,
			Detail: fmt.Sprintf("accounted=%v terminated=%v across %d faulted runs", allAccounted, allTerminated, len(chaosVariants)),
		},
		ShapeCheck{
			Desc:   "the fault plan observably fired: every crash due within each run's lifetime landed, and the lossy link dropped messages",
			Pass:   crashesLanded && dropsSeen,
			Detail: fmt.Sprintf("due crashes landed in every run=%v, drops observed=%v", crashesLanded, dropsSeen),
		},
		ShapeCheck{
			Desc:   "faults cost useful throughput: mean goodput under chaos is below the fault-free mean",
			Pass:   chaosSum < baseSum,
			Detail: fmt.Sprintf("mean goodput %.3f faulted vs %.3f fault-free", chaosSum/float64(len(chaosVariants)), baseSum/float64(len(chaosVariants))),
		},
	)

	// Determinism: replaying one faulted configuration must reproduce
	// the result bit-for-bit — adversity is part of the seeded state.
	replay := cfgs[len(cfgs)-1]
	r1, err := Execute([]core.Config{replay})
	if err != nil {
		return nil, err
	}
	r2, err := Execute([]core.Config{replay})
	if err != nil {
		return nil, err
	}
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   "the faulted run is seed-deterministic: an identical replay matches exactly",
		Pass:   reflect.DeepEqual(r1[0], r2[0]),
		Detail: fmt.Sprintf("replayed %q twice", chaosVariants[len(chaosVariants)-1].Name+" chaos"),
	})
	return rep, nil
}
