package harness

import (
	"fmt"

	"distws/internal/core"
	"distws/internal/sim"
	"distws/internal/term"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
)

// Ablations probe the design choices DESIGN.md calls out. They are not
// figures from the paper, but each connects to a claim in it.

func init() {
	register(Experiment{ID: "ablation-chunk", Title: "A1: chunk size sweep", Run: runAblationChunk})
	register(Experiment{ID: "ablation-poll", Title: "A2: poll interval (progress-engine granularity)", Run: runAblationPoll})
	register(Experiment{ID: "ablation-selectors", Title: "A3: all victim selectors", Run: runAblationSelectors})
	register(Experiment{ID: "ablation-term", Title: "A4: termination detectors", Run: runAblationTerm})
	register(Experiment{ID: "ablation-skew", Title: "A5: skew exponent", Run: runAblationSkew})
	register(Experiment{ID: "ablation-backoff", Title: "A6: retry backoff", Run: runAblationBackoff})
	register(Experiment{ID: "ablation-protocol", Title: "A7: one-sided vs two-sided steals", Run: runAblationProtocol})
	register(Experiment{ID: "ablation-aborts", Title: "A8: aborting steals", Run: runAblationAborts})
	register(Experiment{ID: "ablation-jitter", Title: "A9: latency jitter robustness", Run: runAblationJitter})
}

func ablationRanks(scale Scale) int {
	switch scale {
	case Quick:
		return 64
	case Full:
		return 512
	default:
		return 256
	}
}

func ablationTree(scale Scale) uts.Params {
	if scale == Quick {
		return uts.MustPreset("H-TINY").Params
	}
	return uts.MustPreset("H-SMALL").Params
}

// runAblationChunk sweeps the steal granularity. The paper keeps the
// UTS default of 20 nodes per chunk; at our scaled tree sizes the sweep
// shows the stealability cliff that motivated scaling the chunk down
// (DESIGN.md §2): large chunks leave near-critical stacks unstealable.
func runAblationChunk(scale Scale, seed uint64) (*Report, error) {
	ranks := ablationRanks(scale)
	tree := ablationTree(scale)
	chunks := []int{1, 2, 4, 8, 20, 64}
	var runs []Run
	for _, cs := range chunks {
		runs = append(runs, Run{
			Label: fmt.Sprintf("chunk=%d", cs), Variant: RandHalf,
			Ranks: ranks, Placement: topology.OnePerNode, Tree: tree,
			NodeCost: experimentNodeCost, Seed: seed, ChunkSize: cs,
		})
	}
	outs, err := Execute(runs)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "ablation-chunk",
		Title: fmt.Sprintf("A1: chunk size sweep (%d ranks, Rand Half)", ranks),
		Paper: "Olivier et al. (cited in §II-A) studied chunk size; the paper fixes 20.",
	}
	t := &Table{Title: "Chunk size vs performance", Columns: []string{"chunk", "speedup", "efficiency", "failed steals", "chunks moved"}}
	var s Series
	s.Name = "speedup"
	best, bestChunk := 0.0, 0
	var sp20, sp4 float64
	for i, o := range outs {
		r := o.Result
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", chunks[i]), fmtFloat(r.Speedup, 1), fmtFloat(r.Efficiency, 3),
			fmt.Sprintf("%d", r.FailedSteals), fmt.Sprintf("%d", r.ChunksTransferred),
		})
		s.X = append(s.X, float64(chunks[i]))
		s.Y = append(s.Y, r.Speedup)
		if r.Speedup > best {
			best, bestChunk = r.Speedup, chunks[i]
		}
		if chunks[i] == 20 {
			sp20 = r.Speedup
		}
		if chunks[i] == 4 {
			sp4 = r.Speedup
		}
	}
	rep.Tables = append(rep.Tables, t)
	rep.Plots = append(rep.Plots, ASCIIPlot("speedup vs chunk size", []Series{s}, 48, 10))
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   "at scaled-down tree sizes, the experiment chunk (4) outperforms the paper's chunk of 20",
		Pass:   sp4 > sp20,
		Detail: fmt.Sprintf("chunk4 %.1f vs chunk20 %.1f; best %.1f at chunk=%d", sp4, sp20, best, bestChunk),
	})
	return rep, nil
}

// runAblationPoll shows why the engine polls every node expansion:
// coarser progress engines inflate the victim-side response delay until
// latency-aware selection cannot matter.
func runAblationPoll(scale Scale, seed uint64) (*Report, error) {
	ranks := ablationRanks(scale)
	tree := ablationTree(scale)
	polls := []int{1, 5, 20, 100}
	var runs []Run
	for _, p := range polls {
		runs = append(runs, Run{
			Label: fmt.Sprintf("poll=%d", p), Variant: TofuHalf,
			Ranks: ranks, Placement: topology.OnePerNode, Tree: tree,
			NodeCost: experimentNodeCost, Seed: seed, PollInterval: p,
		})
	}
	outs, err := Execute(runs)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "ablation-poll",
		Title: fmt.Sprintf("A2: poll interval (%d ranks, Tofu Half)", ranks),
		Paper: "The reference MPI implementation makes communication progress every work-loop iteration (§II-A).",
	}
	t := &Table{Title: "Poll interval vs performance", Columns: []string{"poll (cost units)", "speedup", "mean search time (ms)"}}
	var first, last float64
	for i, o := range outs {
		r := o.Result
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", polls[i]), fmtFloat(r.Speedup, 1),
			fmtFloat(r.MeanSearchTime.Seconds()*1e3, 3),
		})
		if i == 0 {
			first = r.Speedup
		}
		last = r.Speedup
	}
	rep.Tables = append(rep.Tables, t)
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   "a coarser progress engine degrades performance",
		Pass:   last < first,
		Detail: fmt.Sprintf("speedup %.1f at poll=1 vs %.1f at poll=%d", first, last, polls[len(polls)-1]),
	})
	return rep, nil
}

// runAblationSelectors compares the paper's three strategies with the
// extension baselines (LastVictim, Hierarchical, Lifeline).
func runAblationSelectors(scale Scale, seed uint64) (*Report, error) {
	ranks := ablationRanks(scale)
	tree := ablationTree(scale)
	sels := []struct {
		name string
		f    victim.Factory
	}{
		{"RoundRobin", victim.NewRoundRobin},
		{"Rand", victim.NewUniformRandom},
		{"Tofu", victim.NewDistanceSkewed},
		{"LastVictim", victim.NewLastVictim},
		{"Hierarchical", victim.NewHierarchical},
		{"Lifeline", victim.NewLifeline},
	}
	var runs []Run
	for _, s := range sels {
		runs = append(runs, Run{
			Label: s.name, Variant: Variant{s.name, s.f, core.StealHalf},
			Ranks: ranks, Placement: topology.OnePerNode, Tree: tree,
			NodeCost: experimentNodeCost, Seed: seed,
		})
	}
	outs, err := Execute(runs)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "ablation-selectors",
		Title: fmt.Sprintf("A3: selector comparison (%d ranks, StealHalf, 1/N)", ranks),
		Paper: "Extends §IV with the hierarchical and lifeline baselines from the related work (§VI).",
	}
	t := &Table{Title: "Selector vs performance", Columns: []string{"selector", "speedup", "failed steals", "mean search (ms)"}}
	speed := map[string]float64{}
	for i, o := range outs {
		r := o.Result
		speed[sels[i].name] = r.Speedup
		t.Rows = append(t.Rows, []string{
			sels[i].name, fmtFloat(r.Speedup, 1), fmt.Sprintf("%d", r.FailedSteals),
			fmtFloat(r.MeanSearchTime.Seconds()*1e3, 3),
		})
	}
	rep.Tables = append(rep.Tables, t)
	if scale == Quick {
		// At toy scale the selectors are within noise of each other;
		// only sanity-check that none collapses.
		rep.Checks = append(rep.Checks, ShapeCheck{
			Desc:   "all selectors complete within 2x of each other (toy scale; see Default for the ordering)",
			Pass:   speed["Rand"] > 0.5*speed["RoundRobin"] && speed["Tofu"] > 0.5*speed["RoundRobin"],
			Detail: fmt.Sprintf("RR %.1f, Rand %.1f, Tofu %.1f", speed["RoundRobin"], speed["Rand"], speed["Tofu"]),
		})
	} else {
		rep.Checks = append(rep.Checks, ShapeCheck{
			Desc:   "every randomized selector beats the deterministic round robin",
			Pass:   speed["Rand"] > speed["RoundRobin"] && speed["Tofu"] > speed["RoundRobin"],
			Detail: fmt.Sprintf("RR %.1f, Rand %.1f, Tofu %.1f", speed["RoundRobin"], speed["Rand"], speed["Tofu"]),
		})
	}
	return rep, nil
}

// runAblationTerm compares Safra against the reference-style ring.
func runAblationTerm(scale Scale, seed uint64) (*Report, error) {
	ranks := ablationRanks(scale)
	tree := ablationTree(scale)
	dets := []struct {
		name string
		f    term.Factory
	}{{"Safra", term.NewSafra}, {"Ring", term.NewRing}}
	var runs []Run
	for _, d := range dets {
		runs = append(runs, Run{
			Label: d.name, Variant: RandHalf, Ranks: ranks,
			Placement: topology.OnePerNode, Tree: tree,
			NodeCost: experimentNodeCost, Seed: seed, Detector: d.f,
		})
	}
	outs, err := Execute(runs)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "ablation-term",
		Title: fmt.Sprintf("A4: termination detection (%d ranks, Rand Half)", ranks),
		Paper: "The reference uses a token ring (§II-A); Safra adds message counting for provable safety.",
	}
	t := &Table{Title: "Detector comparison", Columns: []string{"detector", "makespan", "token rounds", "nodes counted", "premature"}}
	var nodes []uint64
	for i, o := range outs {
		r := o.Result
		nodes = append(nodes, r.Nodes)
		t.Rows = append(t.Rows, []string{
			dets[i].name, fmtDur(r.Makespan), fmt.Sprintf("%d", r.TerminationRounds),
			fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%v", r.Premature),
		})
	}
	rep.Tables = append(rep.Tables, t)
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   "both detectors complete the traversal with identical node counts",
		Pass:   len(nodes) == 2 && nodes[0] == nodes[1] && !outs[0].Result.Premature,
		Detail: fmt.Sprintf("Safra %d vs Ring %d nodes", nodes[0], nodes[1]),
	})
	return rep, nil
}

// runAblationSkew sweeps the weight exponent k in w = 1/d^k; k = 0 is
// uniform random, k = 1 is the paper's choice.
func runAblationSkew(scale Scale, seed uint64) (*Report, error) {
	ranks := ablationRanks(scale)
	tree := ablationTree(scale)
	exps := []float64{0, 0.5, 1, 2, 4}
	var runs []Run
	for _, k := range exps {
		f, err := victim.DistanceSkewedExp(k)
		if err != nil {
			return nil, err
		}
		runs = append(runs, Run{
			Label: fmt.Sprintf("k=%g", k), Variant: Variant{fmt.Sprintf("Tofu^%g Half", k), f, core.StealHalf},
			Ranks: ranks, Placement: topology.OnePerNode, Tree: tree,
			NodeCost: experimentNodeCost, Seed: seed,
		})
	}
	outs, err := Execute(runs)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "ablation-skew",
		Title: fmt.Sprintf("A5: skew exponent sweep (%d ranks, StealHalf, 1/N)", ranks),
		Paper: "The paper weighs victims by 1/e(i,j); the sweep shows the conclusions do not hinge on the exact exponent.",
	}
	t := &Table{Title: "Skew exponent vs performance", Columns: []string{"k", "speedup", "mean search (ms)"}}
	var speeds []float64
	for i, o := range outs {
		r := o.Result
		speeds = append(speeds, r.Speedup)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", exps[i]), fmtFloat(r.Speedup, 1),
			fmtFloat(r.MeanSearchTime.Seconds()*1e3, 3),
		})
	}
	rep.Tables = append(rep.Tables, t)
	lo, hi := speeds[0], speeds[0]
	for _, s := range speeds {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   "performance is robust to the skew exponent (no pathological collapse)",
		Pass:   lo > 0.5*hi,
		Detail: fmt.Sprintf("speedups in [%.1f, %.1f]", lo, hi),
	})
	return rep, nil
}

// runAblationBackoff quantifies the effect of the retry backoff the
// large simulations use (DESIGN.md §6).
func runAblationBackoff(scale Scale, seed uint64) (*Report, error) {
	ranks := ablationRanks(scale)
	tree := ablationTree(scale)
	policies := []struct {
		name string
		b    core.Backoff
	}{
		{"disabled (reference)", core.Backoff{Threshold: -1}},
		{"default", core.DefaultBackoff},
	}
	var runs []Run
	for _, p := range policies {
		runs = append(runs, Run{
			Label: p.name, Variant: RandHalf, Ranks: ranks,
			Placement: topology.OnePerNode, Tree: tree,
			NodeCost: experimentNodeCost, Seed: seed, Backoff: p.b,
		})
	}
	outs, err := Execute(runs)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "ablation-backoff",
		Title: fmt.Sprintf("A6: retry backoff (%d ranks, Rand Half)", ranks),
		Paper: "The reference retries failed steals immediately; backoff is a simulation-cost control for very large runs.",
	}
	t := &Table{Title: "Backoff policy comparison", Columns: []string{"policy", "speedup", "failed steals", "nodes"}}
	var speeds []float64
	var nodes []uint64
	for i, o := range outs {
		r := o.Result
		speeds = append(speeds, r.Speedup)
		nodes = append(nodes, r.Nodes)
		t.Rows = append(t.Rows, []string{
			policies[i].name, fmtFloat(r.Speedup, 1),
			fmt.Sprintf("%d", r.FailedSteals), fmt.Sprintf("%d", r.Nodes),
		})
	}
	rep.Tables = append(rep.Tables, t)
	rep.Checks = append(rep.Checks,
		ShapeCheck{
			Desc:   "backoff does not change what is computed",
			Pass:   nodes[0] == nodes[1],
			Detail: fmt.Sprintf("%d vs %d nodes", nodes[0], nodes[1]),
		},
		ShapeCheck{
			Desc:   "backoff changes performance by a bounded factor",
			Pass:   speeds[1] > 0.5*speeds[0] && speeds[1] < 2*speeds[0],
			Detail: fmt.Sprintf("disabled %.1f vs default %.1f", speeds[0], speeds[1]),
		},
	)
	return rep, nil
}

// runAblationProtocol compares the paper's two-sided steal transport
// against an RDMA-style one-sided transport (the paper's §VII future
// work) for both a good and a bad victim selector.
func runAblationProtocol(scale Scale, seed uint64) (*Report, error) {
	ranks := ablationRanks(scale)
	tree := ablationTree(scale)
	entries := []struct {
		name     string
		variant  Variant
		protocol core.Protocol
	}{
		{"Reference / two-sided", Reference, core.TwoSided},
		{"Reference / one-sided", Reference, core.OneSided},
		{"Tofu Half / two-sided", TofuHalf, core.TwoSided},
		{"Tofu Half / one-sided", TofuHalf, core.OneSided},
	}
	var runs []Run
	for _, e := range entries {
		runs = append(runs, Run{
			Label: e.name, Variant: e.variant, Ranks: ranks,
			Placement: topology.OnePerNode, Tree: tree,
			NodeCost: experimentNodeCost, Seed: seed, Protocol: e.protocol,
		})
	}
	outs, err := Execute(runs)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "ablation-protocol",
		Title: fmt.Sprintf("A7: steal transport (%d ranks, 1/N)", ranks),
		Paper: "§VII suggests one-sided communication as the next optimization beyond victim selection.",
	}
	t := &Table{Title: "Transport comparison", Columns: []string{"configuration", "speedup", "mean search (ms)", "failed steals"}}
	speed := map[string]float64{}
	var nodes []uint64
	for i, o := range outs {
		r := o.Result
		speed[entries[i].name] = r.Speedup
		nodes = append(nodes, r.Nodes)
		t.Rows = append(t.Rows, []string{
			entries[i].name, fmtFloat(r.Speedup, 1),
			fmtFloat(r.MeanSearchTime.Seconds()*1e3, 3),
			fmt.Sprintf("%d", r.FailedSteals),
		})
	}
	rep.Tables = append(rep.Tables, t)
	sameNodes := true
	for _, n := range nodes[1:] {
		if n != nodes[0] {
			sameNodes = false
		}
	}
	rep.Checks = append(rep.Checks,
		ShapeCheck{
			Desc:   "both transports compute the same traversal",
			Pass:   sameNodes,
			Detail: fmt.Sprintf("node counts %v", nodes),
		},
		ShapeCheck{
			Desc: "removing the victim-interruption cost (one-sided) never hurts performance materially",
			Pass: speed["Reference / one-sided"] >= speed["Reference / two-sided"]*0.8 &&
				speed["Tofu Half / one-sided"] >= speed["Tofu Half / two-sided"]*0.8,
			Detail: fmt.Sprintf("reference %.1f -> %.1f, Tofu Half %.1f -> %.1f",
				speed["Reference / two-sided"], speed["Reference / one-sided"],
				speed["Tofu Half / two-sided"], speed["Tofu Half / one-sided"]),
		},
	)
	return rep, nil
}

// runAblationAborts measures aborting steals (Dinan et al., §VI) at
// several timeout values.
func runAblationAborts(scale Scale, seed uint64) (*Report, error) {
	ranks := ablationRanks(scale)
	tree := ablationTree(scale)
	timeouts := []sim.Duration{0, 200 * sim.Microsecond, 50 * sim.Microsecond, 10 * sim.Microsecond}
	var runs []Run
	for _, to := range timeouts {
		runs = append(runs, Run{
			Label: fmt.Sprintf("timeout=%v", to), Variant: RandHalf,
			Ranks: ranks, Placement: topology.OnePerNode, Tree: tree,
			NodeCost: experimentNodeCost, Seed: seed, StealTimeout: to,
		})
	}
	outs, err := Execute(runs)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "ablation-aborts",
		Title: fmt.Sprintf("A8: aborting steals (%d ranks, Rand Half)", ranks),
		Paper: "Dinan et al.'s aborting steals let a steal fail fast when no work is available (§VI).",
	}
	t := &Table{Title: "Abort timeout vs behaviour", Columns: []string{"timeout", "speedup", "aborted", "nodes"}}
	var nodes []uint64
	for i, o := range outs {
		r := o.Result
		nodes = append(nodes, r.Nodes)
		label := "disabled"
		if timeouts[i] > 0 {
			label = fmtDur(timeouts[i])
		}
		t.Rows = append(t.Rows, []string{
			label, fmtFloat(r.Speedup, 1),
			fmt.Sprintf("%d", r.AbortedSteals), fmt.Sprintf("%d", r.Nodes),
		})
	}
	rep.Tables = append(rep.Tables, t)
	sameNodes := true
	for _, n := range nodes[1:] {
		if n != nodes[0] {
			sameNodes = false
		}
	}
	rep.Checks = append(rep.Checks,
		ShapeCheck{
			Desc:   "aborting steals never lose work",
			Pass:   sameNodes,
			Detail: fmt.Sprintf("node counts %v", nodes),
		},
		ShapeCheck{
			Desc:   "aggressive timeouts actually abort",
			Pass:   outs[len(outs)-1].Result.AbortedSteals > 0,
			Detail: fmt.Sprintf("%d aborts at the tightest timeout", outs[len(outs)-1].Result.AbortedSteals),
		},
	)
	return rep, nil
}

// runAblationJitter re-runs the reference-vs-random comparison under
// multiplicative latency noise to show the reproduction's conclusions
// do not depend on perfectly clean latencies.
func runAblationJitter(scale Scale, seed uint64) (*Report, error) {
	ranks := ablationRanks(scale)
	tree := ablationTree(scale)
	fracs := []float64{0, 0.1, 0.3}
	var runs []Run
	for _, frac := range fracs {
		for _, v := range []Variant{Reference, RandHalf} {
			var lat topology.LatencyModel
			if frac > 0 {
				lat = topology.NewJitterLatency(topology.DefaultLatency(), frac, seed)
			}
			runs = append(runs, Run{
				Label: fmt.Sprintf("%s@%.0f%%", v.Name, frac*100), Variant: v,
				Ranks: ranks, Placement: topology.OnePerNode, Tree: tree,
				NodeCost: experimentNodeCost, Seed: seed, Latency: lat,
			})
		}
	}
	outs, err := Execute(runs)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "ablation-jitter",
		Title: fmt.Sprintf("A9: latency jitter (%d ranks, 1/N)", ranks),
		Paper: "Robustness check: the paper's orderings should survive network noise.",
	}
	t := &Table{Title: "Makespan under latency jitter", Columns: []string{"jitter", "Reference", "Rand Half", "Rand Half wins"}}
	ok := true
	for i, frac := range fracs {
		ref := outs[2*i].Result
		rnd := outs[2*i+1].Result
		wins := rnd.Makespan < ref.Makespan
		if scale != Quick && !wins {
			ok = false
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("±%.0f%%", frac*100), fmtDur(ref.Makespan), fmtDur(rnd.Makespan),
			fmt.Sprintf("%v", wins),
		})
	}
	rep.Tables = append(rep.Tables, t)
	if scale == Quick {
		rep.Checks = append(rep.Checks, ShapeCheck{
			Desc:   "jittered runs complete correctly (ordering checked at default scale)",
			Pass:   true,
			Detail: "toy scale",
		})
	} else {
		rep.Checks = append(rep.Checks, ShapeCheck{
			Desc:   "random selection beats the reference at every jitter level",
			Pass:   ok,
			Detail: fmt.Sprintf("jitter levels %v", fracs),
		})
	}
	return rep, nil
}
