package harness

import (
	"fmt"
	"math"
	"slices"

	"distws/internal/core"
	"distws/internal/obs"
	"distws/internal/obs/causal"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
)

func init() {
	register(Experiment{ID: "table1", Title: "UTS input tree parameters", Run: runTable1})
	register(Experiment{ID: "fig02", Title: "Efficiency of the reference implementation, 8-128 ranks", Run: runFig02})
	register(Experiment{ID: "fig04", Title: "Starting/ending latencies, reference, small scale", Run: runFig04})
	register(Experiment{ID: "fig05", Title: "Starting/ending latencies, reference, large scale", Run: runFig05})
	register(Experiment{ID: "fig08", Title: "Skewed victim-selection probability distribution", Run: runFig08})
	register(Experiment{ID: "fig12", Title: "Starting latencies, reference vs Tofu Half", Run: runFig12})
	register(Experiment{ID: "fig13", Title: "Ending latencies, reference vs Tofu Half", Run: runFig13})
	register(Experiment{ID: "fig16", Title: "Victim-selection improvement vs work granularity", Run: runFig16})
	register(Experiment{ID: "blame", Title: "Idle-time blame attribution and critical path per policy", Run: runBlame})
}

// ---------------------------------------------------------------------
// Table I

func runTable1(scale *Scale, _ uint64) (*Report, error) {
	rep := &Report{
		ID:    "table1",
		Title: "UTS input tree parameters",
		Paper: "Table I lists T3XXL (2.79e9 nodes) and T3WL (1.57e11 nodes), both binomial with b=2000, m=2.",
	}
	t := &Table{
		Title:   "Tree presets (paper trees and scaled stand-ins)",
		Columns: []string{"name", "type", "r", "b0", "m", "q", "paper size", "measured size", "depth"},
	}
	names, limit := scale.table1Presets, scale.table1Limit
	var measured []uint64
	for _, name := range names {
		info := uts.MustPreset(name)
		p := info.Params
		size, depth := "(too large to run)", "-"
		if info.PaperSize == 0 {
			res, ok, err := uts.CountLimited(p, limit)
			if err != nil {
				return nil, err
			}
			if ok {
				size = fmt.Sprintf("%d", res.Nodes)
				depth = fmt.Sprintf("%d", res.MaxDepth)
				measured = append(measured, res.Nodes)
			} else {
				size = fmt.Sprintf(">%d", limit)
			}
		}
		paperSize := "-"
		if info.PaperSize > 0 {
			paperSize = fmt.Sprintf("%d", info.PaperSize)
		}
		t.Rows = append(t.Rows, []string{
			info.Name, p.Type.String(), fmt.Sprintf("%d", p.RootSeed),
			fmtFloat(p.B0, 0), fmt.Sprintf("%d", p.NonLeafBF),
			fmtFloat(p.NonLeafProb, 7), paperSize, size, depth,
		})
	}
	rep.Tables = append(rep.Tables, t)
	allDeterministic := true
	for _, name := range names {
		info := uts.MustPreset(name)
		if info.PaperSize > 0 {
			continue
		}
		a, _, err := uts.CountLimited(info.Params, 100_000)
		if err != nil {
			return nil, err
		}
		b, _, err := uts.CountLimited(info.Params, 100_000)
		if err != nil {
			return nil, err
		}
		if a != b {
			allDeterministic = false
		}
	}
	rep.Checks = append(rep.Checks,
		ShapeCheck{
			Desc:   "tree generation is deterministic (same parameters => same tree)",
			Pass:   allDeterministic,
			Detail: fmt.Sprintf("%d presets re-enumerated", len(names)),
		},
		ShapeCheck{
			Desc:   "all enumerable presets are non-trivial",
			Pass:   len(measured) > 0 && slices.Min(measured) > 100,
			Detail: fmt.Sprintf("sizes %v", measured),
		},
	)
	rep.Notes = append(rep.Notes,
		"The paper's T3XXL/T3WL are hours-to-days of compute; scaled presets keep the binomial imbalance (see DESIGN.md §2).")
	return rep, nil
}

// ---------------------------------------------------------------------
// Figure 2

func runFig02(scale *Scale, seed uint64) (*Report, error) {
	rep := &Report{
		ID:    "fig02",
		Title: "Efficiency of the reference work stealing, small scale",
		Paper: "Figure 2: near-perfect efficiency from 8 to 128 ranks for all three process allocations (T3XXL).",
	}
	ranks, tree := scale.fig2Ranks, scale.fig2Tree
	var cfgs []core.Config
	for _, pl := range placements {
		for _, n := range ranks {
			cfg := Reference.Config(n, tree, seed)
			cfg.Placement = pl
			cfgs = append(cfgs, cfg)
		}
	}
	res, err := Execute(cfgs)
	if err != nil {
		return nil, err
	}

	// series[i].Y[j] is placement i's efficiency at rung j.
	t := &Table{Title: "Efficiency (Reference, StealOne)", Columns: []string{"ranks"}}
	var series []Series
	worstSmall := 1.0
	for i, pl := range placements {
		t.Columns = append(t.Columns, pl.String())
		s := Series{Name: pl.String()}
		for j, n := range ranks {
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, res[i*len(ranks)+j].Efficiency)
		}
		worstSmall = min(worstSmall, s.Y[0])
		series = append(series, s)
	}
	for j, n := range ranks {
		row := []string{fmt.Sprintf("%d", n)}
		for _, s := range series {
			row = append(row, fmtFloat(s.Y[j], 3))
		}
		t.Rows = append(t.Rows, row)
	}
	rep.Tables = append(rep.Tables, t)
	rep.Plots = append(rep.Plots, ASCIIPlot("Efficiency vs ranks", series, 48, 10))
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   "efficiency is near-ideal at the smallest scale for every allocation",
		Pass:   worstSmall >= 0.85,
		Detail: fmt.Sprintf("min efficiency at %d ranks = %.3f", ranks[0], worstSmall),
	})
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"Scaled workload: %s instead of T3XXL's 2.79e9 nodes; the efficiency tail at %d ranks dips below the paper's because the distribution phase is proportionally longer (EXPERIMENTS.md).",
		treeName(tree), ranks[len(ranks)-1]))
	return rep, nil
}

// treeName is the preset name of p, else its tree type.
func treeName(p uts.Params) string {
	for _, n := range uts.PresetNames() {
		if uts.MustPreset(n).Params == p {
			return n
		}
	}
	return p.Type.String()
}

// ---------------------------------------------------------------------
// Latency-curve experiments (Figures 4, 5, 12, 13)

func latencyRun(variant Variant, ranks int, tree uts.Params, seed uint64) (*core.Result, error) {
	cfg := variant.Config(ranks, tree, seed)
	cfg.CollectTrace = true
	res, err := Execute([]core.Config{cfg})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

func latencyTable(title string, curve *obs.OccupancyCurve, xs []float64) *Table {
	t := &Table{Title: title, Columns: []string{"occupancy", "SL (% of runtime)", "EL (% of runtime)"}}
	for _, p := range curve.LatencyCurve(xs) {
		sl, el := "unreached", "unreached"
		if p.Reached {
			sl = fmtFloat(p.SL*100, 2)
			el = fmtFloat(p.EL*100, 2)
		}
		t.Rows = append(t.Rows, []string{fmtFloat(p.Occupancy*100, 0) + "%", sl, el})
	}
	return t
}

// namedCurve is one run's occupancy curve under its legend name;
// latencyPlot hands out glyphs and legend places in slice order.
type namedCurve struct {
	name  string
	curve *obs.OccupancyCurve
}

func latencyPlot(title string, curves []namedCurve, xs []float64) string {
	var series []Series
	for _, c := range curves {
		sl := Series{Name: c.name + " SL"}
		el := Series{Name: c.name + " EL"}
		for _, p := range c.curve.LatencyCurve(xs) {
			if !p.Reached {
				continue
			}
			sl.X = append(sl.X, p.Occupancy*100)
			sl.Y = append(sl.Y, p.SL*100)
			el.X = append(el.X, p.Occupancy*100)
			el.Y = append(el.Y, p.EL*100)
		}
		series = append(series, sl, el)
	}
	return ASCIIPlot(title, series, 48, 12)
}

func runFig04(scale *Scale, seed uint64) (*Report, error) {
	ranks := topRung(scale.fig2Ranks)
	res, err := latencyRun(Reference, ranks, scale.fig2Tree, seed)
	if err != nil {
		return nil, err
	}
	curve := obs.Occupancy(res.Trace)
	xs := obs.OccupancySamples(18, 0.9)
	rep := &Report{
		ID:    "fig04",
		Title: fmt.Sprintf("SL/EL of the reference at %d ranks (1/N)", ranks),
		Paper: "Figure 4: at 128 ranks both latencies at 90% occupancy are under 1% of the execution time.",
	}
	rep.Tables = append(rep.Tables, latencyTable("Reference latencies", curve, xs))
	rep.Plots = append(rep.Plots, latencyPlot("SL/EL vs occupancy (%)",
		[]namedCurve{{"Reference", curve}}, xs))
	sl90, ok1 := curve.StartingLatency(0.9)
	el90, ok2 := curve.EndingLatency(0.9)
	// Thresholds loosen with the workload scale-down: the distribution
	// and drain phases are proportionally longer on a 1e6-node tree
	// than on the paper's 2.8e9-node one.
	slMax, elMax := 0.15, 0.25
	if scale.toy {
		slMax, elMax = 0.5, 0.8
	}
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   "90% occupancy is reached early and held late at small scale",
		Pass:   ok1 && ok2 && sl90 < slMax && el90 < elMax,
		Detail: fmt.Sprintf("SL(90%%)=%.2f%%, EL(90%%)=%.2f%% (paper: <1%%)", sl90*100, el90*100),
	})
	rep.Notes = append(rep.Notes,
		"With a ~1e6-node workload the distribution phase is relatively longer than with the paper's 2.8e9 nodes, so the thresholds are looser.")
	return rep, nil
}

func runFig05(scale *Scale, seed uint64) (*Report, error) {
	ranks := topRung(scale.sweepRanks)
	res, err := latencyRun(Reference, ranks, scale.sweepTree, seed)
	if err != nil {
		return nil, err
	}
	curve := obs.Occupancy(res.Trace)
	maxOcc := curve.MaxOccupancy()
	xs := obs.OccupancySamples(40, maxOcc)
	rep := &Report{
		ID:    "fig05",
		Title: fmt.Sprintf("SL/EL of the reference at %d ranks (1/N)", ranks),
		Paper: "Figure 5: at 8192 ranks the run never exceeds 43% occupancy; only 12.5% of ranks are active after 10% of the execution.",
	}
	rep.Tables = append(rep.Tables, latencyTable("Reference latencies", curve, xs))
	rep.Plots = append(rep.Plots, latencyPlot("SL/EL vs occupancy (%)",
		[]namedCurve{{"Reference", curve}}, xs))
	rep.Checks = append(rep.Checks,
		ShapeCheck{
			Desc:   "the large-scale reference run never reaches full occupancy",
			Pass:   maxOcc < 0.995,
			Detail: fmt.Sprintf("max occupancy %.1f%% (paper: 43%%)", maxOcc*100),
		},
	)
	if sl, ok := curve.StartingLatency(0.125); ok && !scale.toy {
		rep.Checks = append(rep.Checks, ShapeCheck{
			Desc:   "reaching even 12.5% occupancy takes a noticeable fraction of the run",
			Pass:   sl > 0.002,
			Detail: fmt.Sprintf("SL(12.5%%)=%.2f%% of runtime (paper: ~10%%)", sl*100),
		})
	}
	return rep, nil
}

func runFig12(scale *Scale, seed uint64) (*Report, error) {
	return latencyComparison(scale, seed, "fig12",
		"Starting latencies, reference vs Tofu Half",
		"Figure 12: the optimized version reaches any given occupancy far earlier in the run.",
		true)
}

func runFig13(scale *Scale, seed uint64) (*Report, error) {
	return latencyComparison(scale, seed, "fig13",
		"Ending latencies, reference vs Tofu Half",
		"Figure 13: the optimized version also maintains high occupancy until late in the execution.",
		false)
}

func latencyComparison(scale *Scale, seed uint64, id, title, paper string, starting bool) (*Report, error) {
	ranks, tree := topRung(scale.sweepRanks), scale.sweepTree
	ref, opt := Reference.Config(ranks, tree, seed), TofuHalf.Config(ranks, tree, seed)
	ref.CollectTrace, opt.CollectTrace = true, true
	res, err := Execute([]core.Config{ref, opt})
	if err != nil {
		return nil, err
	}
	refCurve := obs.Occupancy(res[0].Trace)
	optCurve := obs.Occupancy(res[1].Trace)
	maxShared := math.Min(refCurve.MaxOccupancy(), optCurve.MaxOccupancy())
	xs := obs.OccupancySamples(20, maxShared)

	latency, tableTitle, claim := (*obs.OccupancyCurve).StartingLatency, "Starting latency (% of runtime)", "reaches occupancy earlier"
	if !starting {
		latency, tableTitle, claim = (*obs.OccupancyCurve).EndingLatency, "Ending latency (% of runtime)", "holds occupancy later"
	}
	rep := &Report{ID: id, Title: fmt.Sprintf("%s at %d ranks", title, ranks), Paper: paper}
	t := &Table{Title: tableTitle, Columns: []string{"occupancy", "Reference (%)", "Tofu Half (%)"}}
	var refVals, optVals []float64
	for _, x := range xs {
		rv, ok1 := latency(refCurve, x)
		ov, ok2 := latency(optCurve, x)
		r, o := "unreached", "unreached"
		if ok1 {
			r = fmtFloat(rv*100, 2)
			refVals = append(refVals, rv)
		}
		if ok2 {
			o = fmtFloat(ov*100, 2)
			optVals = append(optVals, ov)
		}
		t.Rows = append(t.Rows, []string{fmtFloat(x*100, 0) + "%", r, o})
	}
	rep.Tables = append(rep.Tables, t)
	rep.Plots = append(rep.Plots, latencyPlot(t.Title+" vs occupancy (%)",
		[]namedCurve{{"Reference", refCurve}, {"Tofu Half", optCurve}}, xs))

	// Compare the latency at the highest shared occupancy point.
	pass := len(refVals) > 0 && len(optVals) > 0 &&
		optVals[len(optVals)-1] <= refVals[len(refVals)-1]+1e-9
	detail := "no shared occupancy points"
	if len(refVals) > 0 && len(optVals) > 0 {
		detail = fmt.Sprintf("at %.0f%% occupancy: Tofu Half %.2f%% vs Reference %.2f%%",
			xs[len(xs)-1]*100, optVals[len(optVals)-1]*100, refVals[len(refVals)-1]*100)
	}
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   fmt.Sprintf("the optimized version %s than the reference", claim),
		Pass:   pass,
		Detail: detail,
	})
	return rep, nil
}

// ---------------------------------------------------------------------
// Figure 8

func runFig08(scale *Scale, seed uint64) (*Report, error) {
	ranks := scale.fig8Ranks
	job, err := topology.NewJob(topology.KComputer(), ranks, topology.OnePerNode)
	if err != nil {
		return nil, err
	}
	sel := victim.NewDistanceSkewed(job, seed)
	pdfer, ok := sel.(interface{ PDF(int) []float64 })
	if !ok {
		return nil, fmt.Errorf("fig08: selector does not expose PDF")
	}
	pdf := pdfer.PDF(0)

	rep := &Report{
		ID:    "fig08",
		Title: fmt.Sprintf("p(0, x) of the skewed selection over a %d-rank 1/N allocation", ranks),
		Paper: "Figure 8: selection probability decays with rank distance from the thief, spanning roughly a 4x range over 1024 ranks.",
	}
	series := Series{Name: "p(0,x)"}
	minP, maxP := math.Inf(1), 0.0
	for x := 1; x < ranks; x++ {
		series.X = append(series.X, float64(x))
		series.Y = append(series.Y, pdf[x])
		minP, maxP = min(minP, pdf[x]), max(maxP, pdf[x])
	}
	rep.Plots = append(rep.Plots, ASCIIPlot("selection probability vs victim rank", []Series{series}, 64, 12))

	t := &Table{Title: "PDF summary", Columns: []string{"statistic", "value"}}
	uniform := 1.0 / float64(ranks-1)
	t.Rows = append(t.Rows,
		[]string{"uniform probability", fmt.Sprintf("%.3e", uniform)},
		[]string{"max p(0,x)", fmt.Sprintf("%.3e", maxP)},
		[]string{"min p(0,x)", fmt.Sprintf("%.3e", minP)},
		[]string{"max/min ratio", fmtFloat(maxP/minP, 2)},
	)
	rep.Tables = append(rep.Tables, t)

	// The nearest other rank must be most probable and the PDF must sum
	// to 1 with the thief excluded.
	sum := 0.0
	for _, p := range pdf {
		sum += p
	}
	near := -1
	nd := math.Inf(1)
	for x := 1; x < ranks; x++ {
		if d := job.Distance(0, x); d < nd {
			nd, near = d, x
		}
	}
	rep.Checks = append(rep.Checks,
		ShapeCheck{
			Desc:   "probabilities form a distribution over the other ranks",
			Pass:   math.Abs(sum-1) < 1e-9 && pdf[0] == 0,
			Detail: fmt.Sprintf("sum=%.12f", sum),
		},
		ShapeCheck{
			Desc:   "the nearest rank is the most probable victim",
			Pass:   pdf[near] == maxP,
			Detail: fmt.Sprintf("rank %d at distance %.2f has p=%.3e", near, nd, pdf[near]),
		},
		ShapeCheck{
			Desc:   "the skew spans a multiplicative range comparable to the paper's (~4x)",
			Pass:   maxP/minP > 2,
			Detail: fmt.Sprintf("max/min = %.2f", maxP/minP),
		},
	)
	return rep, nil
}

// ---------------------------------------------------------------------
// Figure 16

func runFig16(scale *Scale, seed uint64) (*Report, error) {
	ranks, tree, rounds := topRung(scale.sweepRanks), scale.sweepTree, scale.fig16Rounds
	variants := []Variant{ReferenceHalf, RandHalf, TofuHalf}
	var cfgs []core.Config
	for _, r := range rounds {
		for _, v := range variants {
			cfg := v.Config(ranks, tree, seed)
			cfg.NodeCost = core.GranularityCost(r)
			cfgs = append(cfgs, cfg)
		}
	}
	res, err := Execute(cfgs)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:    "fig16",
		Title: fmt.Sprintf("Runtime improvement over Reference Half vs work granularity (%d ranks, 1/N)", ranks),
		Paper: "Figure 16: as per-node compute grows (more SHA rounds), the advantage of better victim selection shrinks.",
	}
	t := &Table{Title: "Runtime improvement (%) over Reference Half", Columns: []string{"SHA rounds", "Rand Half", "Tofu Half"}}
	sRand, sTofu := Series{Name: "Rand Half"}, Series{Name: "Tofu Half"}
	for i, r := range rounds {
		at := res[i*len(variants):] // Reference Half, Rand Half, Tofu Half at r rounds
		ref, rnd, tofu := at[0].Makespan.Seconds(), at[1].Makespan.Seconds(), at[2].Makespan.Seconds()
		ri, ti := (ref-rnd)/ref*100, (ref-tofu)/ref*100
		sRand.X, sRand.Y = append(sRand.X, float64(r)), append(sRand.Y, ri)
		sTofu.X, sTofu.Y = append(sTofu.X, float64(r)), append(sTofu.Y, ti)
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", r), fmtFloat(ri, 1), fmtFloat(ti, 1)})
	}
	rep.Tables = append(rep.Tables, t)
	rep.Plots = append(rep.Plots, ASCIIPlot("improvement (%) vs SHA rounds",
		[]Series{sRand, sTofu}, 48, 10))

	last := len(rounds) - 1
	firstMean, lastMean := (sRand.Y[0]+sTofu.Y[0])/2, (sRand.Y[last]+sTofu.Y[last])/2
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   "the improvement from better victim selection shrinks as work granularity grows",
		Pass:   lastMean < firstMean,
		Detail: fmt.Sprintf("mean improvement %.1f%% at %d round(s) vs %.1f%% at %d rounds", firstMean, rounds[0], lastMean, rounds[last]),
	})
	rep.Notes = append(rep.Notes,
		"Granularity scales the virtual per-child cost (GranularityCost); the tree itself is held fixed so ratios compare identical workloads.")
	return rep, nil
}

// ---------------------------------------------------------------------
// Causal observability: blame attribution and critical path

func runBlame(scale *Scale, seed uint64) (*Report, error) {
	rep := &Report{
		ID:    "blame",
		Title: "Idle-time blame attribution and critical path per policy",
		Paper: "Causal view of Figures 6/7: the reference round-robin's failed-steal flood surfaces as refused-steal search blame, and its slow wind-down as termination-tail blame and token time on the critical path.",
	}
	ranks, tree := scale.blameRanks, scale.sweepTree
	variants := []Variant{Reference, Rand, Tofu}
	var cfgs []core.Config
	for _, v := range variants {
		cfg := v.Config(ranks, tree, seed)
		cfg.CollectEvents = true
		cfgs = append(cfgs, cfg)
	}
	res, err := Execute(cfgs)
	if err != nil {
		return nil, err
	}

	blameTab := &Table{
		Title:   fmt.Sprintf("Idle-time blame at %d ranks (%% of total rank-time)", ranks),
		Columns: []string{"variant", "busy", "startup", "search", "in-flight", "term-tail"},
	}
	critTab := &Table{
		Title:   "Critical-path decomposition (% of makespan)",
		Columns: []string{"variant", "compute", "steal-rtt", "transfer", "token", "wait", "segments", "max depth"},
	}
	partitionExact, pathExact := true, true
	search := map[string]float64{}
	tail := map[string]float64{}
	for i, r := range res {
		label := variants[i].Name
		tr := r.Trace
		a := causal.Analyze(tr)
		b, p := a.Blame(), a.Path()
		for _, rb := range b.PerRank {
			if rb.Total() != sim.Duration(tr.End) {
				partitionExact = false
			}
		}
		var sum sim.Duration
		for _, d := range p.ByKind {
			sum += d
		}
		if sum != sim.Duration(tr.End) || p.Total != sim.Duration(tr.End) {
			pathExact = false
		}
		whole := float64(b.Total.Total())
		pc := func(d sim.Duration) float64 { return 100 * float64(d) / whole }
		search[label] = pc(b.Total.Search)
		tail[label] = pc(b.Total.TermTail)
		blameTab.Rows = append(blameTab.Rows, []string{
			label, fmtFloat(pc(b.Total.Busy), 1), fmtFloat(pc(b.Total.Startup), 1),
			fmtFloat(pc(b.Total.Search), 1), fmtFloat(pc(b.Total.InFlight), 1),
			fmtFloat(pc(b.Total.TermTail), 1),
		})
		critTab.Rows = append(critTab.Rows, []string{
			label, fmtFloat(p.Share(causal.SegCompute), 1), fmtFloat(p.Share(causal.SegStealRTT), 1),
			fmtFloat(p.Share(causal.SegTransfer), 1), fmtFloat(p.Share(causal.SegToken), 1),
			fmtFloat(p.Share(causal.SegWait), 1), fmt.Sprintf("%d", len(p.Segments)),
			fmt.Sprintf("%d", a.Graph().MaxDepth()),
		})
	}
	rep.Tables = append(rep.Tables, blameTab, critTab)
	rep.Checks = append(rep.Checks,
		ShapeCheck{
			Desc:   "blame categories partition each rank's time exactly (busy + blamed idle = makespan)",
			Pass:   partitionExact,
			Detail: fmt.Sprintf("%d runs x %d ranks verified", len(res), ranks),
		},
		ShapeCheck{
			Desc:   "critical-path segment durations sum to the makespan",
			Pass:   pathExact,
			Detail: fmt.Sprintf("%d runs verified", len(res)),
		},
		ShapeCheck{
			Desc:   "the reference round-robin wastes at least as much idle time searching as random selection (Figure 7's failed-steal flood, causally attributed)",
			Pass:   search["Reference"] >= search["Rand"],
			Detail: fmt.Sprintf("search blame: Reference %.1f%% vs Rand %.1f%% (term-tail %.1f%% vs %.1f%%)", search["Reference"], search["Rand"], tail["Reference"], tail["Rand"]),
		},
	)
	rep.Notes = append(rep.Notes,
		"Blame partitions every rank's idle time into startup, refused-steal search, work-transfer in flight, and the termination tail (internal/obs/causal).")
	return rep, nil
}
