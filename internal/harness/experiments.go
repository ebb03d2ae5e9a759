package harness

import (
	"fmt"
	"math"

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
	register(Experiment{ID: "fig03", Title: "Speedup of the reference implementation at scale", Run: runFig03})
	register(Experiment{ID: "fig04", Title: "Starting/ending latencies, reference, small scale", Run: runFig04})
	register(Experiment{ID: "fig05", Title: "Starting/ending latencies, reference, large scale", Run: runFig05})
	register(Experiment{ID: "fig06", Title: "Speedup with uniform random victim selection", Run: runFig06})
	register(Experiment{ID: "fig07", Title: "Failed steals, reference vs random", Run: runFig07})
	register(Experiment{ID: "fig08", Title: "Skewed victim-selection probability distribution", Run: runFig08})
	register(Experiment{ID: "fig09", Title: "Speedup with distance-skewed (Tofu) selection", Run: runFig09})
	register(Experiment{ID: "fig10", Title: "Average work-discovery session duration", Run: runFig10})
	register(Experiment{ID: "fig11", Title: "Speedup when stealing half the chunks", Run: runFig11})
	register(Experiment{ID: "fig12", Title: "Starting latencies, reference vs Tofu Half", Run: runFig12})
	register(Experiment{ID: "fig13", Title: "Ending latencies, reference vs Tofu Half", Run: runFig13})
	register(Experiment{ID: "fig14", Title: "Average search time per rank", Run: runFig14})
	register(Experiment{ID: "fig15", Title: "Failed steals, reference vs Tofu Half", Run: runFig15})
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
			Pass:   len(measured) > 0 && minU64(measured) > 100,
			Detail: fmt.Sprintf("sizes %v", measured),
		},
	)
	rep.Notes = append(rep.Notes,
		"The paper's T3XXL/T3WL are hours-to-days of compute; scaled presets keep the binomial imbalance (see DESIGN.md §2).")
	return rep, nil
}

func minU64(xs []uint64) uint64 {
	m := ^uint64(0)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
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

	t := &Table{Title: "Efficiency (Reference, StealOne)", Columns: []string{"ranks"}}
	for _, pl := range placements {
		t.Columns = append(t.Columns, pl.String())
	}
	eff := map[topology.Placement]map[int]float64{}
	for i, pl := range placements {
		eff[pl] = map[int]float64{}
		for j, n := range ranks {
			eff[pl][n] = res[i*len(ranks)+j].Efficiency
		}
	}
	var series []Series
	for _, pl := range placements {
		s := Series{Name: pl.String()}
		for _, n := range ranks {
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, eff[pl][n])
		}
		series = append(series, s)
	}
	for _, n := range ranks {
		row := []string{fmt.Sprintf("%d", n)}
		for _, pl := range placements {
			row = append(row, fmtFloat(eff[pl][n], 3))
		}
		t.Rows = append(t.Rows, row)
	}
	rep.Tables = append(rep.Tables, t)
	rep.Plots = append(rep.Plots, ASCIIPlot("Efficiency vs ranks", series, 48, 10))

	smallestOK, worstSmall := true, 1.0
	for _, pl := range placements {
		if e := eff[pl][ranks[0]]; e < worstSmall {
			worstSmall = e
		}
		if eff[pl][ranks[0]] < 0.85 {
			smallestOK = false
		}
	}
	rep.Checks = append(rep.Checks,
		ShapeCheck{
			Desc:   "efficiency is near-ideal at the smallest scale for every allocation",
			Pass:   smallestOK,
			Detail: fmt.Sprintf("min efficiency at %d ranks = %.3f", ranks[0], worstSmall),
		},
	)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"Scaled workload: %s instead of T3XXL's 2.79e9 nodes; the efficiency tail at %d ranks dips below the paper's because the distribution phase is proportionally longer (EXPERIMENTS.md).",
		treeName(tree), ranks[len(ranks)-1]))
	return rep, nil
}

// ---------------------------------------------------------------------
// Speedup sweeps (Figures 3, 6, 9, 11 share machinery)

type sweepSpec struct {
	id, title, paper string
	// variants maps table column -> (variant, placements). Reference
	// comparisons re-use earlier variants.
	entries []sweepEntry
}

type sweepEntry struct {
	Variant   Variant
	Placement topology.Placement
}

func (e sweepEntry) label() string {
	return fmt.Sprintf("%s %v", e.Variant.Name, e.Placement)
}

type sweepData struct {
	ranks   []int
	speedup map[string]map[int]float64 // label -> ranks -> speedup
	fails   map[string]map[int]float64
	search  map[string]map[int]float64 // milliseconds
	session map[string]map[int]float64 // milliseconds
}

func (s *sweepData) at(label string, n int, m map[string]map[int]float64) float64 {
	if m[label] == nil {
		return math.NaN()
	}
	return m[label][n]
}

func runSweep(spec sweepSpec, scale *Scale, seed uint64, withTrace bool) (*Report, *sweepData, error) {
	ranks, tree := scale.sweepRanks, scale.sweepTree
	var cfgs []core.Config
	for _, e := range spec.entries {
		for _, n := range ranks {
			cfg := e.Variant.Config(n, tree, seed)
			cfg.Placement = e.Placement
			cfg.CollectTrace = withTrace
			cfgs = append(cfgs, cfg)
		}
	}
	res, err := Execute(cfgs)
	if err != nil {
		return nil, nil, err
	}
	sp := &sweepData{
		ranks:   ranks,
		speedup: map[string]map[int]float64{},
		fails:   map[string]map[int]float64{},
		search:  map[string]map[int]float64{},
		session: map[string]map[int]float64{},
	}
	ensure := func(m map[string]map[int]float64, k string) map[int]float64 {
		if m[k] == nil {
			m[k] = map[int]float64{}
		}
		return m[k]
	}
	for i, r := range res {
		l, n := spec.entries[i/len(ranks)].label(), ranks[i%len(ranks)]
		ensure(sp.speedup, l)[n] = r.Speedup
		ensure(sp.fails, l)[n] = float64(r.FailedSteals)
		ensure(sp.search, l)[n] = r.MeanSearchTime.Seconds() * 1e3
		ensure(sp.session, l)[n] = r.MeanSessionDuration.Seconds() * 1e3
	}

	rep := &Report{ID: spec.id, Title: spec.title, Paper: spec.paper}
	rep.Tables = append(rep.Tables, sweepTable("Speedup", spec, sp, sp.speedup, 0))
	var series []Series
	for _, e := range spec.entries {
		s := Series{Name: e.label()}
		for _, n := range ranks {
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, sp.at(e.label(), n, sp.speedup))
		}
		series = append(series, s)
	}
	rep.Plots = append(rep.Plots, ASCIIPlot("Speedup vs ranks", series, 48, 12))
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"Rank counts scaled 1/%d from the paper's 1024-8192 (scale=%v); workload %s.", 1024/ranks[0], scale, treeName(tree)))
	return rep, sp, nil
}

func treeName(p uts.Params) string {
	for _, n := range uts.PresetNames() {
		if uts.MustPreset(n).Params == p {
			return n
		}
	}
	return p.Type.String()
}

func sweepTable(metric string, spec sweepSpec, sp *sweepData, m map[string]map[int]float64, prec int) *Table {
	t := &Table{Title: metric, Columns: []string{"ranks"}}
	for _, e := range spec.entries {
		t.Columns = append(t.Columns, e.label())
	}
	for _, n := range sp.ranks {
		row := []string{fmt.Sprintf("%d", n)}
		for _, e := range spec.entries {
			row = append(row, fmtFloat(sp.at(e.label(), n, m), prec))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func runFig03(scale *Scale, seed uint64) (*Report, error) {
	spec := sweepSpec{
		id:    "fig03",
		title: "Speedup of the reference implementation, large scale",
		paper: "Figure 3: the reference stops scaling past 2048 ranks; allocations that spread consecutive ranks (8RR) are worst.",
		entries: []sweepEntry{
			{Reference, topology.OnePerNode},
			{Reference, topology.EightRoundRobin},
			{Reference, topology.EightGrouped},
		},
	}
	rep, sp, err := runSweep(spec, scale, seed, false)
	if err != nil {
		return nil, err
	}
	top, prev := topRung(sp.ranks), sp.ranks[len(sp.ranks)-2]
	l := "Reference 1/N"
	growth := sp.at(l, top, sp.speedup) / sp.at(l, prev, sp.speedup)
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   "reference speedup saturates: doubling ranks adds <35% speedup at the top of the sweep",
		Pass:   growth < 1.35,
		Detail: fmt.Sprintf("speedup(%d)/speedup(%d) = %.2f", top, prev, growth),
	})
	return rep, nil
}

func runFig06(scale *Scale, seed uint64) (*Report, error) {
	spec := sweepSpec{
		id:    "fig06",
		title: "Speedup with uniform random victim selection",
		paper: "Figure 6: random selection beats the reference when using one rank per node.",
		entries: []sweepEntry{
			{Reference, topology.OnePerNode},
			{Rand, topology.OnePerNode},
			{Rand, topology.EightRoundRobin},
			{Rand, topology.EightGrouped},
		},
	}
	rep, sp, err := runSweep(spec, scale, seed, false)
	if err != nil {
		return nil, err
	}
	top := topRung(sp.ranks)
	ref := sp.at("Reference 1/N", top, sp.speedup)
	rnd := sp.at("Rand 1/N", top, sp.speedup)
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   "random 1/N outperforms the reference 1/N at the largest scale",
		Pass:   rnd > ref,
		Detail: fmt.Sprintf("Rand %.0f vs Reference %.0f at %d ranks", rnd, ref, top),
	})
	return rep, nil
}

func runFig07(scale *Scale, seed uint64) (*Report, error) {
	spec := sweepSpec{
		id:    "fig07",
		title: "Failed steals, reference vs random selection",
		paper: "Figure 7: random selection significantly reduces the number of failed steals.",
		entries: []sweepEntry{
			{Reference, topology.OnePerNode},
			{Rand, topology.OnePerNode},
			{Rand, topology.EightRoundRobin},
			{Rand, topology.EightGrouped},
		},
	}
	rep, sp, err := runSweep(spec, scale, seed, false)
	if err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, sweepTable("Failed steals", spec, sp, sp.fails, 0))
	top := topRung(sp.ranks)
	ref := sp.at("Reference 1/N", top, sp.fails)
	rnd := sp.at("Rand 1/N", top, sp.fails)
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   "random selection fails less than the reference at the largest scale",
		Pass:   rnd < ref,
		Detail: fmt.Sprintf("Rand %.0f vs Reference %.0f failed steals at %d ranks", rnd, ref, top),
	})
	return rep, nil
}

func runFig09(scale *Scale, seed uint64) (*Report, error) {
	spec := sweepSpec{
		id:    "fig09",
		title: "Speedup with distance-skewed (Tofu) victim selection",
		paper: "Figure 9: every allocation improves over random selection with the same allocation; Tofu 1/N is the best overall.",
		entries: []sweepEntry{
			{Rand, topology.OnePerNode},
			{Tofu, topology.OnePerNode},
			{Tofu, topology.EightRoundRobin},
			{Tofu, topology.EightGrouped},
		},
	}
	rep, sp, err := runSweep(spec, scale, seed, false)
	if err != nil {
		return nil, err
	}
	top := topRung(sp.ranks)
	rnd := sp.at("Rand 1/N", top, sp.speedup)
	tofu := sp.at("Tofu 1/N", top, sp.speedup)
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   fmt.Sprintf("Tofu 1/N is at least competitive with Rand 1/N at the largest scale (the paper's gains grow with machine span; at 1/%d scale the latency spread is narrower)", 1024/sp.ranks[0]),
		Pass:   tofu > 0.92*rnd,
		Detail: fmt.Sprintf("Tofu %.0f vs Rand %.0f at %d ranks", tofu, rnd, top),
	})
	return rep, nil
}

func runFig10(scale *Scale, seed uint64) (*Report, error) {
	spec := sweepSpec{
		id:    "fig10",
		title: "Average duration of a work-discovery session",
		paper: "Figure 10: the topology-aware strategy finds work much faster than the reference.",
		entries: []sweepEntry{
			{Reference, topology.OnePerNode},
			{Rand, topology.OnePerNode},
			{Tofu, topology.OnePerNode},
			{Tofu, topology.EightRoundRobin},
			{Tofu, topology.EightGrouped},
		},
	}
	rep, sp, err := runSweep(spec, scale, seed, true)
	if err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, sweepTable("Mean work-discovery session (ms)", spec, sp, sp.session, 3))
	top := topRung(sp.ranks)
	ref := sp.at("Reference 1/N", top, sp.session)
	tofu := sp.at("Tofu 1/N", top, sp.session)
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   "Tofu finds work faster than the reference at the largest scale",
		Pass:   tofu < ref,
		Detail: fmt.Sprintf("Tofu %.3fms vs Reference %.3fms at %d ranks", tofu, ref, top),
	})
	return rep, nil
}

func runFig11(scale *Scale, seed uint64) (*Report, error) {
	spec := sweepSpec{
		id:    "fig11",
		title: "Speedup of the half-stealing variants",
		paper: "Figure 11: skewed selection plus stealing half performs ~3x better than the reference and keeps scaling to 8192 ranks.",
		entries: []sweepEntry{
			{Reference, topology.OnePerNode},
			{ReferenceHalf, topology.OnePerNode},
			{Tofu, topology.OnePerNode},
			{RandHalf, topology.OnePerNode},
			{TofuHalf, topology.OnePerNode},
		},
	}
	rep, sp, err := runSweep(spec, scale, seed, false)
	if err != nil {
		return nil, err
	}
	top := topRung(sp.ranks)
	ref := sp.at("Reference 1/N", top, sp.speedup)
	tofuHalf := sp.at("Tofu Half 1/N", top, sp.speedup)
	prev := sp.ranks[len(sp.ranks)-2]
	tofuPrev := sp.at("Tofu Half 1/N", prev, sp.speedup)
	refPrev := sp.at("Reference 1/N", prev, sp.speedup)
	rep.Checks = append(rep.Checks,
		ShapeCheck{
			Desc:   "Tofu Half clearly outperforms the reference at the largest scale",
			Pass:   tofuHalf > 1.2*ref,
			Detail: fmt.Sprintf("Tofu Half %.0f vs Reference %.0f at %d ranks (paper: ~3x at 8192)", tofuHalf, ref, top),
		},
		ShapeCheck{
			Desc: "Tofu Half holds its performance at the top of the sweep while the reference declines",
			// Tofu Half stays within noise of its plateau (or grows) and
			// keeps a growing margin over the reference.
			Pass:   tofuHalf > 0.95*tofuPrev && tofuHalf/ref > tofuPrev/refPrev*0.95,
			Detail: fmt.Sprintf("Tofu Half %.0f -> %.0f, Reference %.0f -> %.0f", tofuPrev, tofuHalf, refPrev, ref),
		},
	)
	return rep, nil
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

	rep := &Report{ID: id, Title: fmt.Sprintf("%s at %d ranks", title, ranks), Paper: paper}
	t := &Table{Columns: []string{"occupancy", "Reference (%)", "Tofu Half (%)"}}
	if starting {
		t.Title = "Starting latency (% of runtime)"
	} else {
		t.Title = "Ending latency (% of runtime)"
	}
	var refVals, optVals []float64
	for _, x := range xs {
		var rv, ov float64
		var ok1, ok2 bool
		if starting {
			rv, ok1 = refCurve.StartingLatency(x)
			ov, ok2 = optCurve.StartingLatency(x)
		} else {
			rv, ok1 = refCurve.EndingLatency(x)
			ov, ok2 = optCurve.EndingLatency(x)
		}
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
	claim := "reaches occupancy earlier"
	if !starting {
		claim = "holds occupancy later"
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
	var series Series
	series.Name = "p(0,x)"
	var minP, maxP = math.Inf(1), 0.0
	for x := 1; x < ranks; x++ {
		series.X = append(series.X, float64(x))
		series.Y = append(series.Y, pdf[x])
		if pdf[x] < minP {
			minP = pdf[x]
		}
		if pdf[x] > maxP {
			maxP = pdf[x]
		}
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
// Figures 14, 15

func runFig14(scale *Scale, seed uint64) (*Report, error) {
	spec := sweepSpec{
		id:    "fig14",
		title: "Average search time per rank",
		paper: "Figure 14: skewed selection with half-stealing greatly diminishes time spent searching for work.",
		entries: []sweepEntry{
			{Reference, topology.OnePerNode},
			{TofuHalf, topology.OnePerNode},
			{TofuHalf, topology.EightRoundRobin},
			{TofuHalf, topology.EightGrouped},
		},
	}
	rep, sp, err := runSweep(spec, scale, seed, false)
	if err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, sweepTable("Mean search time (ms)", spec, sp, sp.search, 3))
	top := topRung(sp.ranks)
	ref := sp.at("Reference 1/N", top, sp.search)
	opt := sp.at("Tofu Half 1/N", top, sp.search)
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   "Tofu Half searches for work far less than the reference at the largest scale",
		Pass:   opt < ref,
		Detail: fmt.Sprintf("Tofu Half %.3fms vs Reference %.3fms at %d ranks", opt, ref, top),
	})
	return rep, nil
}

func runFig15(scale *Scale, seed uint64) (*Report, error) {
	spec := sweepSpec{
		id:    "fig15",
		title: "Failed steals, reference vs Tofu Half",
		paper: "Figure 15: failed steals decrease as a result of better work distribution.",
		entries: []sweepEntry{
			{Reference, topology.OnePerNode},
			{TofuHalf, topology.OnePerNode},
			{TofuHalf, topology.EightRoundRobin},
			{TofuHalf, topology.EightGrouped},
		},
	}
	rep, sp, err := runSweep(spec, scale, seed, false)
	if err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, sweepTable("Failed steals", spec, sp, sp.fails, 0))
	top := topRung(sp.ranks)
	ref := sp.at("Reference 1/N", top, sp.fails)
	opt := sp.at("Tofu Half 1/N", top, sp.fails)
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   "Tofu Half fails fewer steals than the reference at the largest scale",
		Pass:   opt < ref,
		Detail: fmt.Sprintf("Tofu Half %.0f vs Reference %.0f at %d ranks", opt, ref, top),
	})
	return rep, nil
}

// ---------------------------------------------------------------------
// Figure 16

func runFig16(scale *Scale, seed uint64) (*Report, error) {
	ranks, tree, rounds := topRung(scale.sweepRanks), scale.sweepTree, scale.fig16Rounds
	variants := []Variant{ReferenceHalf, RandHalf, TofuHalf}
	var cfgs []core.Config
	var labels []string
	for _, r := range rounds {
		for _, v := range variants {
			cfg := v.Config(ranks, tree, seed)
			cfg.NodeCost = core.GranularityCost(r)
			cfgs = append(cfgs, cfg)
			labels = append(labels, fmt.Sprintf("%s@%d", v.Name, r))
		}
	}
	res, err := Execute(cfgs)
	if err != nil {
		return nil, err
	}
	makespan := map[string]float64{}
	for i, r := range res {
		makespan[labels[i]] = r.Makespan.Seconds()
	}

	rep := &Report{
		ID:    "fig16",
		Title: fmt.Sprintf("Runtime improvement over Reference Half vs work granularity (%d ranks, 1/N)", ranks),
		Paper: "Figure 16: as per-node compute grows (more SHA rounds), the advantage of better victim selection shrinks.",
	}
	t := &Table{Title: "Runtime improvement (%) over Reference Half", Columns: []string{"SHA rounds", "Rand Half", "Tofu Half"}}
	var randImp, tofuImp []float64
	var sRand, sTofu Series
	sRand.Name, sTofu.Name = "Rand Half", "Tofu Half"
	for _, r := range rounds {
		ref := makespan[fmt.Sprintf("Reference Half@%d", r)]
		ri := (ref - makespan[fmt.Sprintf("Rand Half@%d", r)]) / ref * 100
		ti := (ref - makespan[fmt.Sprintf("Tofu Half@%d", r)]) / ref * 100
		randImp = append(randImp, ri)
		tofuImp = append(tofuImp, ti)
		sRand.X = append(sRand.X, float64(r))
		sRand.Y = append(sRand.Y, ri)
		sTofu.X = append(sTofu.X, float64(r))
		sTofu.Y = append(sTofu.Y, ti)
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", r), fmtFloat(ri, 1), fmtFloat(ti, 1)})
	}
	rep.Tables = append(rep.Tables, t)
	rep.Plots = append(rep.Plots, ASCIIPlot("improvement (%) vs SHA rounds",
		[]Series{sRand, sTofu}, 48, 10))

	firstMean := (randImp[0] + tofuImp[0]) / 2
	lastMean := (randImp[len(randImp)-1] + tofuImp[len(tofuImp)-1]) / 2
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   "the improvement from better victim selection shrinks as work granularity grows",
		Pass:   lastMean < firstMean,
		Detail: fmt.Sprintf("mean improvement %.1f%% at %d round(s) vs %.1f%% at %d rounds", firstMean, rounds[0], lastMean, rounds[len(rounds)-1]),
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
