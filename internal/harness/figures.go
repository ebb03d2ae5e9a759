package harness

import (
	"fmt"
	"strings"

	"distws/internal/core"
	"distws/internal/topology"
	"distws/internal/uts"
)

// The paper's three allocations in presentation order, and the first.
var (
	placements = []topology.Placement{topology.OnePerNode, topology.EightRoundRobin, topology.EightGrouped}
	onePerNode = placements[:1]
)

// placed is each variant on each allocation, labelled "variant
// allocation" (the allocation alone for no variant).
func placed(pls []topology.Placement, vs ...Variant) []cell {
	var cs []cell
	for _, v := range vs {
		for _, pl := range pls {
			cs = append(cs, cell{strings.TrimSpace(v.Name + " " + pl.String()), v, func(c *core.Config) { c.Placement = pl }})
		}
	}
	return cs
}

func setRanks(c *core.Config, n int) { c.Ranks = n }

func sweepTop(s *Scale) (int, uts.Params) { return topRung(s.sweepRanks), s.sweepTree }

// sweep is g run up the scale's sweep ladder: a Speedup table before
// g's own, the speedup plot and the ladder note.
func sweep(g grid) grid {
	g.at, g.axis = sweepTop, "ranks"
	g.rows = ladder(func(s *Scale) []int { return s.sweepRanks }, setRanks)
	speedupTable := table{"Speedup", []column{col("", func(r *core.Result) string { return fmtFloat(r.Speedup, 0) })}}
	g.tables = append([]table{speedupTable}, g.tables...)
	g.plot = &plot{"Speedup vs ranks", 12, speedup}
	g.note = func(s *Scale) string {
		return fmt.Sprintf("Rank counts %s the paper's 1024-8192 (scale=%v); workload %s.",
			ladderScale(s.sweepRanks, "scaled 1/%d from", "are"), s, treeName(s.sweepTree))
	}
	return g
}

var failedTable = table{"Failed steals", []column{each(failedCol)}}

// improvement is column c's runtime gain over the row's first run, in
// percent.
func improvement(row []*core.Result, c int) float64 {
	ref := row[0].Makespan.Seconds()
	return (ref - row[c].Makespan.Seconds()) / ref * 100
}

var figures = []grid{
	{
		id:        "fig02",
		listTitle: "Efficiency of the reference implementation, 8-128 ranks",
		title:     "Efficiency of the reference work stealing, small scale",
		paper:     "Figure 2: near-perfect efficiency from 8 to 128 ranks for all three process allocations (T3XXL).",
		at:        func(s *Scale) (int, uts.Params) { return topRung(s.fig2Ranks), s.fig2Tree },
		axis:      "ranks",
		rows:      func(s *Scale) []cell { return knob(Reference, setRanks, s.fig2Ranks...) },
		columns:   placed(placements, Variant{}),
		tables:    []table{{"Efficiency (Reference, StealOne)", []column{each(efficiencyCol)}}},
		plot:      &plot{"Efficiency vs ranks", 10, func(row []*core.Result, c int) float64 { return row[c].Efficiency }},
		note: func(s *Scale) string {
			return fmt.Sprintf("Scaled workload: %s instead of T3XXL's 2.79e9 nodes; the efficiency tail at %d ranks dips below the paper's because the distribution phase is proportionally longer (EXPERIMENTS.md).",
				treeName(s.fig2Tree), topRung(s.fig2Ranks))
		},
		checks: func(res runs, scale *Scale) []ShapeCheck {
			worstSmall := 1.0
			for _, r := range res[0] {
				worstSmall = min(worstSmall, r.Efficiency)
			}
			return []ShapeCheck{{"efficiency is near-ideal at the smallest scale for every allocation", worstSmall >= 0.85,
				fmt.Sprintf("min efficiency at %d ranks = %.3f", scale.fig2Ranks[0], worstSmall)}}
		},
	},
	sweep(grid{
		id:        "fig03",
		listTitle: "Speedup of the reference implementation at scale",
		title:     "Speedup of the reference implementation, large scale",
		paper:     "Figure 3: the reference stops scaling past 2048 ranks; allocations that spread consecutive ranks (8RR) are worst.",
		columns:   placed(placements, Reference),
		checks: func(res runs, scale *Scale) []ShapeCheck {
			ranks := scale.sweepRanks
			growth := res.top(0).Speedup / res.prev(0).Speedup
			return []ShapeCheck{{"reference speedup saturates: doubling ranks adds <35% speedup at the top of the sweep", growth < 1.35,
				fmt.Sprintf("speedup(%d)/speedup(%d) = %.2f", topRung(ranks), ranks[len(ranks)-2], growth)}}
		},
	}),
	sweep(grid{
		id:        "fig06",
		listTitle: "Speedup with uniform random victim selection",
		title:     "Speedup with uniform random victim selection",
		paper:     "Figure 6: random selection beats the reference when using one rank per node.",
		columns:   append(placed(onePerNode, Reference), placed(placements, Rand)...),
		checks: func(res runs, scale *Scale) []ShapeCheck {
			ref, rnd := res.top(0).Speedup, res.top(1).Speedup
			return []ShapeCheck{{"random 1/N outperforms the reference 1/N at the largest scale", rnd > ref,
				fmt.Sprintf("Rand %.0f vs Reference %.0f at %d ranks", rnd, ref, topRung(scale.sweepRanks))}}
		},
	}),
	sweep(grid{
		id:        "fig07",
		listTitle: "Failed steals, reference vs random",
		title:     "Failed steals, reference vs random selection",
		paper:     "Figure 7: random selection significantly reduces the number of failed steals.",
		columns:   append(placed(onePerNode, Reference), placed(placements, Rand)...),
		tables:    []table{failedTable},
		checks: func(res runs, scale *Scale) []ShapeCheck {
			ref, rnd := float64(res.top(0).FailedSteals), float64(res.top(1).FailedSteals)
			return []ShapeCheck{{"random selection fails less than the reference at the largest scale", rnd < ref,
				fmt.Sprintf("Rand %.0f vs Reference %.0f failed steals at %d ranks", rnd, ref, topRung(scale.sweepRanks))}}
		},
	}),
	sweep(grid{
		id:        "fig09",
		listTitle: "Speedup with distance-skewed (Tofu) selection",
		title:     "Speedup with distance-skewed (Tofu) victim selection",
		paper:     "Figure 9: every allocation improves over random selection with the same allocation; Tofu 1/N is the best overall.",
		columns:   append(placed(onePerNode, Rand), placed(placements, Tofu)...),
		checks: func(res runs, scale *Scale) []ShapeCheck {
			rnd, tofu := res.top(0).Speedup, res.top(1).Speedup
			return []ShapeCheck{{"Tofu 1/N is at least competitive with Rand 1/N at the largest scale (the paper's gains grow with machine span; " +
				ladderScale(scale.sweepRanks, "at 1/%d scale the latency spread is narrower)", "here at the paper's rank counts on a smaller tree)"),
				tofu > 0.92*rnd, fmt.Sprintf("Tofu %.0f vs Rand %.0f at %d ranks", tofu, rnd, topRung(scale.sweepRanks))}}
		},
	}),
	sweep(grid{
		id:        "fig10",
		listTitle: "Average work-discovery session duration",
		title:     "Average duration of a work-discovery session",
		paper:     "Figure 10: the topology-aware strategy finds work much faster than the reference.",
		columns:   append(placed(onePerNode, Reference, Rand), placed(placements, Tofu)...),
		tables: []table{{"Mean work-discovery session (ms)", []column{
			col("", func(r *core.Result) string { return fmtFloat(r.MeanSessionDuration.Seconds()*1e3, 3) })}}},
		checks: func(res runs, scale *Scale) []ShapeCheck {
			ref, tofu := res.top(0).MeanSessionDuration.Seconds()*1e3, res.top(2).MeanSessionDuration.Seconds()*1e3
			return []ShapeCheck{{"Tofu finds work faster than the reference at the largest scale", tofu < ref,
				fmt.Sprintf("Tofu %.3fms vs Reference %.3fms at %d ranks", tofu, ref, topRung(scale.sweepRanks))}}
		},
	}),
	sweep(grid{
		id:        "fig11",
		listTitle: "Speedup when stealing half the chunks",
		title:     "Speedup of the half-stealing variants",
		paper:     "Figure 11: skewed selection plus stealing half performs ~3x better than the reference and keeps scaling to 8192 ranks.",
		columns:   placed(onePerNode, Reference, ReferenceHalf, Tofu, RandHalf, TofuHalf),
		checks: func(res runs, scale *Scale) []ShapeCheck {
			ref, tofuHalf := res.top(0).Speedup, res.top(4).Speedup
			refPrev, tofuPrev := res.prev(0).Speedup, res.prev(4).Speedup
			return []ShapeCheck{
				{"Tofu Half clearly outperforms the reference at the largest scale", tofuHalf > 1.2*ref,
					fmt.Sprintf("Tofu Half %.0f vs Reference %.0f at %d ranks (paper: ~3x at 8192)", tofuHalf, ref, topRung(scale.sweepRanks))},
				// Tofu Half stays within noise of its plateau (or grows) and
				// keeps a growing margin over the reference.
				{"Tofu Half holds its performance at the top of the sweep while the reference declines",
					tofuHalf > 0.95*tofuPrev && tofuHalf/ref > tofuPrev/refPrev*0.95,
					fmt.Sprintf("Tofu Half %.0f -> %.0f, Reference %.0f -> %.0f", tofuPrev, tofuHalf, refPrev, ref)},
			}
		},
	}),
	sweep(grid{
		id:        "fig14",
		listTitle: "Average search time per rank",
		title:     "Average search time per rank",
		paper:     "Figure 14: skewed selection with half-stealing greatly diminishes time spent searching for work.",
		columns:   append(placed(onePerNode, Reference), placed(placements, TofuHalf)...),
		tables:    []table{{"Mean search time (ms)", []column{each(searchCol)}}},
		checks: func(res runs, scale *Scale) []ShapeCheck {
			ref, opt := res.top(0).MeanSearchTime.Seconds()*1e3, res.top(1).MeanSearchTime.Seconds()*1e3
			return []ShapeCheck{{"Tofu Half searches for work far less than the reference at the largest scale", opt < ref,
				fmt.Sprintf("Tofu Half %.3fms vs Reference %.3fms at %d ranks", opt, ref, topRung(scale.sweepRanks))}}
		},
	}),
	sweep(grid{
		id:        "fig15",
		listTitle: "Failed steals, reference vs Tofu Half",
		title:     "Failed steals, reference vs Tofu Half",
		paper:     "Figure 15: failed steals decrease as a result of better work distribution.",
		columns:   append(placed(onePerNode, Reference), placed(placements, TofuHalf)...),
		tables:    []table{failedTable},
		checks: func(res runs, scale *Scale) []ShapeCheck {
			ref, opt := float64(res.top(0).FailedSteals), float64(res.top(1).FailedSteals)
			return []ShapeCheck{{"Tofu Half fails fewer steals than the reference at the largest scale", opt < ref,
				fmt.Sprintf("Tofu Half %.0f vs Reference %.0f at %d ranks", opt, ref, topRung(scale.sweepRanks))}}
		},
	}),
	{
		id:        "fig16",
		listTitle: "Victim-selection improvement vs work granularity",
		title:     "Runtime improvement over Reference Half vs work granularity (%d ranks, 1/N)",
		paper:     "Figure 16: as per-node compute grows (more SHA rounds), the advantage of better victim selection shrinks.",
		at:        sweepTop,
		axis:      "SHA rounds",
		rows: ladder(func(s *Scale) []int { return s.fig16Rounds },
			func(c *core.Config, r int) { c.NodeCost = core.GranularityCost(r) }),
		// Reference Half is unlabelled: the baseline the others read.
		columns: []cell{{"", ReferenceHalf, nil}, {"Rand Half", RandHalf, nil}, {"Tofu Half", TofuHalf, nil}},
		tables: []table{{"Runtime improvement (%) over Reference Half", []column{
			{"", func(row []*core.Result, c int) string { return fmtFloat(improvement(row, c), 1) }}}}},
		plot: &plot{"improvement (%) vs SHA rounds", 10, improvement},
		note: func(*Scale) string {
			return "Granularity scales the virtual per-child cost (GranularityCost); the tree itself is held fixed so ratios compare identical workloads."
		},
		checks: func(res runs, scale *Scale) []ShapeCheck {
			rounds := scale.fig16Rounds
			mean := func(row []*core.Result) float64 { return (improvement(row, 1) + improvement(row, 2)) / 2 }
			first, last := mean(res[0]), mean(res[len(res)-1])
			return []ShapeCheck{{"the improvement from better victim selection shrinks as work granularity grows", last < first,
				fmt.Sprintf("mean improvement %.1f%% at %d round(s) vs %.1f%% at %d rounds", first, rounds[0], last, topRung(rounds))}}
		},
	},
}

// ladderScale is paper for a sweep ladder at the paper's 1024-8192 ranks,
// else scaled with its %d set to the scale-down factor 1024/ranks[0].
func ladderScale(ranks []int, scaled, paper string) string {
	if ranks[0] == 1024 {
		return paper
	}
	return fmt.Sprintf(scaled, 1024/ranks[0])
}
