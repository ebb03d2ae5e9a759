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

// experimentNodeCost calibrates one child generation to 1 µs, close to
// the paper's measured 970k nodes/second per rank.
const experimentNodeCost = 1 * sim.Microsecond

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

func runTable1(scale Scale, _ uint64) (*Report, error) {
	rep := &Report{
		ID:    "table1",
		Title: "UTS input tree parameters",
		Paper: "Table I lists T3XXL (2.79e9 nodes) and T3WL (1.57e11 nodes), both binomial with b=2000, m=2.",
	}
	t := &Table{
		Title:   "Tree presets (paper trees and scaled stand-ins)",
		Columns: []string{"name", "type", "r", "b0", "m", "q", "paper size", "measured size", "depth"},
	}
	names := []string{"T3XXL", "T3WL", "T3S", "T3M", "H-SMALL", "H-SWEEP"}
	if scale == Quick {
		names = []string{"T3XXL", "T3WL", "T3", "H-TINY"}
	}
	limit := uint64(20_000_000)
	if scale == Quick {
		limit = 1_000_000
	}
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

func runFig02(scale Scale, seed uint64) (*Report, error) {
	rep := &Report{
		ID:    "fig02",
		Title: "Efficiency of the reference work stealing, small scale",
		Paper: "Figure 2: near-perfect efficiency from 8 to 128 ranks for all three process allocations (T3XXL).",
	}
	ranks := fig2Ranks(scale)
	tree := fig2Tree(scale)
	var runs []Run
	for _, pl := range placements {
		for _, n := range ranks {
			runs = append(runs, Run{
				Variant: Reference, Ranks: n, Placement: pl,
				Tree: tree, NodeCost: experimentNodeCost, Seed: seed,
			})
		}
	}
	outs, err := Execute(runs)
	if err != nil {
		return nil, err
	}

	t := &Table{Title: "Efficiency (Reference, StealOne)", Columns: []string{"ranks"}}
	for _, pl := range placements {
		t.Columns = append(t.Columns, pl.String())
	}
	eff := map[topology.Placement]map[int]float64{}
	for _, o := range outs {
		if eff[o.Run.Placement] == nil {
			eff[o.Run.Placement] = map[int]float64{}
		}
		eff[o.Run.Placement][o.Run.Ranks] = o.Result.Efficiency
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
		"Scaled workload: %v nodes instead of 2.79e9; the efficiency tail at %d ranks dips below the paper's because the distribution phase is proportionally longer (EXPERIMENTS.md).",
		tree.Type, ranks[len(ranks)-1]))
	return rep, nil
}

// ---------------------------------------------------------------------
// Speedup sweeps (Figures 3, 6, 9, 11 share machinery)

type sweepSpec struct {
	id, title, paper string
	// variants maps table column -> (variant, placements). Reference
	// comparisons re-use earlier variants.
	entries []sweepEntry
	checks  func(rep *Report, sp *sweepData, scale Scale)
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

func runSweep(spec sweepSpec, scale Scale, seed uint64, withTrace bool) (*Report, *sweepData, error) {
	ranks := sweepRanks(scale)
	tree := sweepTree(scale)
	var runs []Run
	for _, e := range spec.entries {
		for _, n := range ranks {
			runs = append(runs, Run{
				Label: e.label(), Variant: e.Variant, Ranks: n, Placement: e.Placement,
				Tree: tree, NodeCost: experimentNodeCost, Seed: seed, Trace: withTrace,
			})
		}
	}
	outs, err := Execute(runs)
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
	for _, o := range outs {
		l := o.Run.Label
		ensure(sp.speedup, l)[o.Run.Ranks] = o.Result.Speedup
		ensure(sp.fails, l)[o.Run.Ranks] = float64(o.Result.FailedSteals)
		ensure(sp.search, l)[o.Run.Ranks] = o.Result.MeanSearchTime.Seconds() * 1e3
		ensure(sp.session, l)[o.Run.Ranks] = o.Result.MeanSessionDuration.Seconds() * 1e3
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
	if spec.checks != nil {
		spec.checks(rep, sp, scale)
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"Rank counts scaled 1/8 from the paper's 1024-8192 (scale=%v); workload %s.", scale, treeName(tree)))
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

func topRanks(sp *sweepData) int { return sp.ranks[len(sp.ranks)-1] }

func runFig03(scale Scale, seed uint64) (*Report, error) {
	spec := sweepSpec{
		id:    "fig03",
		title: "Speedup of the reference implementation, large scale",
		paper: "Figure 3: the reference stops scaling past 2048 ranks; allocations that spread consecutive ranks (8RR) are worst.",
		entries: []sweepEntry{
			{Reference, topology.OnePerNode},
			{Reference, topology.EightRoundRobin},
			{Reference, topology.EightGrouped},
		},
		checks: func(rep *Report, sp *sweepData, scale Scale) {
			top, prev := topRanks(sp), sp.ranks[len(sp.ranks)-2]
			l := "Reference 1/N"
			growth := sp.at(l, top, sp.speedup) / sp.at(l, prev, sp.speedup)
			rep.Checks = append(rep.Checks, ShapeCheck{
				Desc:   "reference speedup saturates: doubling ranks adds <35% speedup at the top of the sweep",
				Pass:   growth < 1.35,
				Detail: fmt.Sprintf("speedup(%d)/speedup(%d) = %.2f", top, prev, growth),
			})
		},
	}
	rep, _, err := runSweep(spec, scale, seed, false)
	return rep, err
}

func runFig06(scale Scale, seed uint64) (*Report, error) {
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
		checks: func(rep *Report, sp *sweepData, scale Scale) {
			top := topRanks(sp)
			ref := sp.at("Reference 1/N", top, sp.speedup)
			rnd := sp.at("Rand 1/N", top, sp.speedup)
			rep.Checks = append(rep.Checks, ShapeCheck{
				Desc:   "random 1/N outperforms the reference 1/N at the largest scale",
				Pass:   rnd > ref,
				Detail: fmt.Sprintf("Rand %.0f vs Reference %.0f at %d ranks", rnd, ref, top),
			})
		},
	}
	rep, _, err := runSweep(spec, scale, seed, false)
	return rep, err
}

func runFig07(scale Scale, seed uint64) (*Report, error) {
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
	top := topRanks(sp)
	ref := sp.at("Reference 1/N", top, sp.fails)
	rnd := sp.at("Rand 1/N", top, sp.fails)
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   "random selection fails less than the reference at the largest scale",
		Pass:   rnd < ref,
		Detail: fmt.Sprintf("Rand %.0f vs Reference %.0f failed steals at %d ranks", rnd, ref, top),
	})
	return rep, nil
}

func runFig09(scale Scale, seed uint64) (*Report, error) {
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
		checks: func(rep *Report, sp *sweepData, scale Scale) {
			top := topRanks(sp)
			rnd := sp.at("Rand 1/N", top, sp.speedup)
			tofu := sp.at("Tofu 1/N", top, sp.speedup)
			rep.Checks = append(rep.Checks, ShapeCheck{
				Desc:   "Tofu 1/N is at least competitive with Rand 1/N at the largest scale (the paper's gains grow with machine span; at 1/8 scale the latency spread is narrower)",
				Pass:   tofu > 0.92*rnd,
				Detail: fmt.Sprintf("Tofu %.0f vs Rand %.0f at %d ranks", tofu, rnd, top),
			})
		},
	}
	rep, _, err := runSweep(spec, scale, seed, false)
	return rep, err
}

func runFig10(scale Scale, seed uint64) (*Report, error) {
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
	top := topRanks(sp)
	ref := sp.at("Reference 1/N", top, sp.session)
	tofu := sp.at("Tofu 1/N", top, sp.session)
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   "Tofu finds work faster than the reference at the largest scale",
		Pass:   tofu < ref,
		Detail: fmt.Sprintf("Tofu %.3fms vs Reference %.3fms at %d ranks", tofu, ref, top),
	})
	return rep, nil
}

func runFig11(scale Scale, seed uint64) (*Report, error) {
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
		checks: func(rep *Report, sp *sweepData, scale Scale) {
			top := topRanks(sp)
			ref := sp.at("Reference 1/N", top, sp.speedup)
			tofuHalf := sp.at("Tofu Half 1/N", top, sp.speedup)
			rep.Checks = append(rep.Checks,
				ShapeCheck{
					Desc:   "Tofu Half clearly outperforms the reference at the largest scale",
					Pass:   tofuHalf > 1.2*ref,
					Detail: fmt.Sprintf("Tofu Half %.0f vs Reference %.0f at %d ranks (paper: ~3x at 8192)", tofuHalf, ref, top),
				},
				ShapeCheck{
					Desc: "Tofu Half holds its performance at the top of the sweep while the reference declines",
					Pass: func() bool {
						prev := sp.ranks[len(sp.ranks)-2]
						tofuPrev := sp.at("Tofu Half 1/N", prev, sp.speedup)
						refPrev := sp.at("Reference 1/N", prev, sp.speedup)
						// Tofu Half stays within noise of its plateau (or grows)
						// and keeps a growing margin over the reference.
						return tofuHalf > 0.95*tofuPrev && tofuHalf/ref > tofuPrev/refPrev*0.95
					}(),
					Detail: fmt.Sprintf("Tofu Half %.0f -> %.0f, Reference %.0f -> %.0f",
						sp.at("Tofu Half 1/N", sp.ranks[len(sp.ranks)-2], sp.speedup), tofuHalf,
						sp.at("Reference 1/N", sp.ranks[len(sp.ranks)-2], sp.speedup), ref),
				},
			)
		},
	}
	rep, _, err := runSweep(spec, scale, seed, false)
	return rep, err
}

// ---------------------------------------------------------------------
// Latency-curve experiments (Figures 4, 5, 12, 13)

func latencyRun(variant Variant, ranks int, tree uts.Params, seed uint64) (*core.Result, error) {
	outs, err := Execute([]Run{{
		Variant: variant, Ranks: ranks, Placement: topology.OnePerNode,
		Tree: tree, NodeCost: experimentNodeCost, Seed: seed, Trace: true,
	}})
	if err != nil {
		return nil, err
	}
	return outs[0].Result, nil
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

func runFig04(scale Scale, seed uint64) (*Report, error) {
	ranks := 128
	if scale == Quick {
		ranks = 32
	}
	res, err := latencyRun(Reference, ranks, fig2Tree(scale), seed)
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
	if scale == Quick {
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

func runFig05(scale Scale, seed uint64) (*Report, error) {
	ranks := 1024
	if scale == Quick {
		ranks = 128
	}
	if scale == Full {
		ranks = 2048
	}
	res, err := latencyRun(Reference, ranks, sweepTree(scale), seed)
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
	if sl, ok := curve.StartingLatency(0.125); ok && scale != Quick {
		rep.Checks = append(rep.Checks, ShapeCheck{
			Desc:   "reaching even 12.5% occupancy takes a noticeable fraction of the run",
			Pass:   sl > 0.002,
			Detail: fmt.Sprintf("SL(12.5%%)=%.2f%% of runtime (paper: ~10%%)", sl*100),
		})
	}
	return rep, nil
}

func runFig12(scale Scale, seed uint64) (*Report, error) {
	return latencyComparison(scale, seed, "fig12",
		"Starting latencies, reference vs Tofu Half",
		"Figure 12: the optimized version reaches any given occupancy far earlier in the run.",
		true)
}

func runFig13(scale Scale, seed uint64) (*Report, error) {
	return latencyComparison(scale, seed, "fig13",
		"Ending latencies, reference vs Tofu Half",
		"Figure 13: the optimized version also maintains high occupancy until late in the execution.",
		false)
}

func latencyComparison(scale Scale, seed uint64, id, title, paper string, starting bool) (*Report, error) {
	ranks := topRanksForScale(scale)
	tree := sweepTree(scale)
	outs, err := Execute([]Run{
		{Variant: Reference, Ranks: ranks, Placement: topology.OnePerNode, Tree: tree, NodeCost: experimentNodeCost, Seed: seed, Trace: true},
		{Variant: TofuHalf, Ranks: ranks, Placement: topology.OnePerNode, Tree: tree, NodeCost: experimentNodeCost, Seed: seed, Trace: true},
	})
	if err != nil {
		return nil, err
	}
	refCurve := obs.Occupancy(outs[0].Result.Trace)
	optCurve := obs.Occupancy(outs[1].Result.Trace)
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

func topRanksForScale(scale Scale) int {
	r := sweepRanks(scale)
	return r[len(r)-1]
}

// ---------------------------------------------------------------------
// Figure 8

func runFig08(scale Scale, seed uint64) (*Report, error) {
	ranks := 1024
	if scale == Quick {
		ranks = 128
	}
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

func runFig14(scale Scale, seed uint64) (*Report, error) {
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
	top := topRanks(sp)
	ref := sp.at("Reference 1/N", top, sp.search)
	opt := sp.at("Tofu Half 1/N", top, sp.search)
	rep.Checks = append(rep.Checks, ShapeCheck{
		Desc:   "Tofu Half searches for work far less than the reference at the largest scale",
		Pass:   opt < ref,
		Detail: fmt.Sprintf("Tofu Half %.3fms vs Reference %.3fms at %d ranks", opt, ref, top),
	})
	return rep, nil
}

func runFig15(scale Scale, seed uint64) (*Report, error) {
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
	top := topRanks(sp)
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

func runFig16(scale Scale, seed uint64) (*Report, error) {
	ranks := topRanksForScale(scale)
	tree := sweepTree(scale)
	rounds := []int{1, 2, 4, 8, 16, 24}
	if scale == Quick {
		rounds = []int{1, 4, 16}
	}
	variants := []Variant{ReferenceHalf, RandHalf, TofuHalf}
	var runs []Run
	for _, r := range rounds {
		for _, v := range variants {
			runs = append(runs, Run{
				Label: fmt.Sprintf("%s@%d", v.Name, r), Variant: v,
				Ranks: ranks, Placement: topology.OnePerNode, Tree: tree,
				NodeCost: core.GranularityCost(r), Seed: seed,
			})
		}
	}
	outs, err := Execute(runs)
	if err != nil {
		return nil, err
	}
	makespan := map[string]float64{}
	for _, o := range outs {
		makespan[o.Run.Label] = o.Result.Makespan.Seconds()
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

// blameRanks picks one representative rank count per scale for the
// causal tables (a single size keeps the event logs affordable).
func blameRanks(s Scale) int {
	switch s {
	case Quick:
		return 64
	case Full:
		return 1024
	default:
		return 256
	}
}

func runBlame(scale Scale, seed uint64) (*Report, error) {
	rep := &Report{
		ID:    "blame",
		Title: "Idle-time blame attribution and critical path per policy",
		Paper: "Causal view of Figures 6/7: the reference round-robin's failed-steal flood surfaces as refused-steal search blame, and its slow wind-down as termination-tail blame and token time on the critical path.",
	}
	ranks := blameRanks(scale)
	tree := sweepTree(scale)
	var runs []Run
	for _, v := range []Variant{Reference, Rand, Tofu} {
		runs = append(runs, Run{
			Label: v.Name, Variant: v, Ranks: ranks, Placement: topology.OnePerNode,
			Tree: tree, NodeCost: experimentNodeCost, Events: true, Seed: seed,
		})
	}
	outs, err := Execute(runs)
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
	for _, o := range outs {
		tr := o.Result.Trace
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
		search[o.Run.Label] = pc(b.Total.Search)
		tail[o.Run.Label] = pc(b.Total.TermTail)
		blameTab.Rows = append(blameTab.Rows, []string{
			o.Run.Label, fmtFloat(pc(b.Total.Busy), 1), fmtFloat(pc(b.Total.Startup), 1),
			fmtFloat(pc(b.Total.Search), 1), fmtFloat(pc(b.Total.InFlight), 1),
			fmtFloat(pc(b.Total.TermTail), 1),
		})
		critTab.Rows = append(critTab.Rows, []string{
			o.Run.Label, fmtFloat(p.Share(causal.SegCompute), 1), fmtFloat(p.Share(causal.SegStealRTT), 1),
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
			Detail: fmt.Sprintf("%d runs x %d ranks verified", len(outs), ranks),
		},
		ShapeCheck{
			Desc:   "critical-path segment durations sum to the makespan",
			Pass:   pathExact,
			Detail: fmt.Sprintf("%d runs verified", len(outs)),
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
