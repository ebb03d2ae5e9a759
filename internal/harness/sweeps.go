package harness

import (
	"fmt"

	"distws/internal/core"
	"distws/internal/topology"
)

// Eight of the paper's figures are one experiment: a set of (variant,
// placement) columns run up the scale's sweep ladder and read through
// a metric. Each is a row of sweepFigures; sweepFigure.run runs any
// row.

func init() {
	for i := range sweepFigures {
		f := &sweepFigures[i]
		register(Experiment{ID: f.id, Title: f.listTitle, Run: f.run})
	}
}

// sweepColumn is one column of a sweep: a variant on an allocation.
type sweepColumn struct {
	v  Variant
	pl topology.Placement
}

func (c sweepColumn) String() string { return fmt.Sprintf("%s %v", c.v.Name, c.pl) }

// onePerNode puts each variant on the 1/N allocation; everyPlacement
// puts one variant on each of the paper's allocations.
func onePerNode(vs ...Variant) []sweepColumn {
	var cs []sweepColumn
	for _, v := range vs {
		cs = append(cs, sweepColumn{v, topology.OnePerNode})
	}
	return cs
}

func everyPlacement(v Variant) []sweepColumn {
	var cs []sweepColumn
	for _, pl := range placements {
		cs = append(cs, sweepColumn{v, pl})
	}
	return cs
}

// sweepMetric is a table of one number per run over the sweep, printed
// with prec decimals.
type sweepMetric struct {
	title string
	prec  int
	of    func(*core.Result) float64
}

var (
	speedupTable = sweepMetric{"Speedup", 0, func(r *core.Result) float64 { return r.Speedup }}
	failedTable  = sweepMetric{"Failed steals", 0, func(r *core.Result) float64 { return float64(r.FailedSteals) }}
)

// sweep is a figure's results: res[c][i] is column c at rung i of ranks.
type sweep struct {
	ranks []int
	res   [][]*core.Result
}

// top is column c's result at the top rung, prev one rung below it.
func (s *sweep) top(c int) *core.Result  { return s.res[c][len(s.ranks)-1] }
func (s *sweep) prev(c int) *core.Result { return s.res[c][len(s.ranks)-2] }

// sweepFigure is one speedup figure.
type sweepFigure struct {
	id string
	// listTitle is the registry's (experiments -list), title the report's.
	listTitle, title, paper string
	columns                 []sweepColumn
	// traced runs collect the trace that session durations come from.
	traced bool
	// extra are the tables printed after Speedup.
	extra []sweepMetric
	// checks reads the columns by their index in columns.
	checks func(s *sweep) []ShapeCheck
}

var sweepFigures = []sweepFigure{
	{
		id:        "fig03",
		listTitle: "Speedup of the reference implementation at scale",
		title:     "Speedup of the reference implementation, large scale",
		paper:     "Figure 3: the reference stops scaling past 2048 ranks; allocations that spread consecutive ranks (8RR) are worst.",
		columns:   everyPlacement(Reference),
		checks: func(s *sweep) []ShapeCheck {
			top, prev := topRung(s.ranks), s.ranks[len(s.ranks)-2]
			growth := s.top(0).Speedup / s.prev(0).Speedup
			return []ShapeCheck{{
				Desc:   "reference speedup saturates: doubling ranks adds <35% speedup at the top of the sweep",
				Pass:   growth < 1.35,
				Detail: fmt.Sprintf("speedup(%d)/speedup(%d) = %.2f", top, prev, growth),
			}}
		},
	},
	{
		id:        "fig06",
		listTitle: "Speedup with uniform random victim selection",
		title:     "Speedup with uniform random victim selection",
		paper:     "Figure 6: random selection beats the reference when using one rank per node.",
		columns:   append(onePerNode(Reference), everyPlacement(Rand)...),
		checks: func(s *sweep) []ShapeCheck {
			ref, rnd := s.top(0).Speedup, s.top(1).Speedup
			return []ShapeCheck{{
				Desc:   "random 1/N outperforms the reference 1/N at the largest scale",
				Pass:   rnd > ref,
				Detail: fmt.Sprintf("Rand %.0f vs Reference %.0f at %d ranks", rnd, ref, topRung(s.ranks)),
			}}
		},
	},
	{
		id:        "fig07",
		listTitle: "Failed steals, reference vs random",
		title:     "Failed steals, reference vs random selection",
		paper:     "Figure 7: random selection significantly reduces the number of failed steals.",
		columns:   append(onePerNode(Reference), everyPlacement(Rand)...),
		extra:     []sweepMetric{failedTable},
		checks: func(s *sweep) []ShapeCheck {
			ref, rnd := float64(s.top(0).FailedSteals), float64(s.top(1).FailedSteals)
			return []ShapeCheck{{
				Desc:   "random selection fails less than the reference at the largest scale",
				Pass:   rnd < ref,
				Detail: fmt.Sprintf("Rand %.0f vs Reference %.0f failed steals at %d ranks", rnd, ref, topRung(s.ranks)),
			}}
		},
	},
	{
		id:        "fig09",
		listTitle: "Speedup with distance-skewed (Tofu) selection",
		title:     "Speedup with distance-skewed (Tofu) victim selection",
		paper:     "Figure 9: every allocation improves over random selection with the same allocation; Tofu 1/N is the best overall.",
		columns:   append(onePerNode(Rand), everyPlacement(Tofu)...),
		checks: func(s *sweep) []ShapeCheck {
			rnd, tofu := s.top(0).Speedup, s.top(1).Speedup
			return []ShapeCheck{{
				Desc: "Tofu 1/N is at least competitive with Rand 1/N at the largest scale (the paper's gains grow with machine span; " +
					ladderScale(s.ranks, "at 1/%d scale the latency spread is narrower)", "here at the paper's rank counts on a smaller tree)"),
				Pass:   tofu > 0.92*rnd,
				Detail: fmt.Sprintf("Tofu %.0f vs Rand %.0f at %d ranks", tofu, rnd, topRung(s.ranks)),
			}}
		},
	},
	{
		id:        "fig10",
		listTitle: "Average work-discovery session duration",
		title:     "Average duration of a work-discovery session",
		paper:     "Figure 10: the topology-aware strategy finds work much faster than the reference.",
		columns:   append(onePerNode(Reference, Rand), everyPlacement(Tofu)...),
		traced:    true,
		extra: []sweepMetric{{"Mean work-discovery session (ms)", 3,
			func(r *core.Result) float64 { return r.MeanSessionDuration.Seconds() * 1e3 }}},
		checks: func(s *sweep) []ShapeCheck {
			ref, tofu := s.top(0).MeanSessionDuration.Seconds()*1e3, s.top(2).MeanSessionDuration.Seconds()*1e3
			return []ShapeCheck{{
				Desc:   "Tofu finds work faster than the reference at the largest scale",
				Pass:   tofu < ref,
				Detail: fmt.Sprintf("Tofu %.3fms vs Reference %.3fms at %d ranks", tofu, ref, topRung(s.ranks)),
			}}
		},
	},
	{
		id:        "fig11",
		listTitle: "Speedup when stealing half the chunks",
		title:     "Speedup of the half-stealing variants",
		paper:     "Figure 11: skewed selection plus stealing half performs ~3x better than the reference and keeps scaling to 8192 ranks.",
		columns:   onePerNode(Reference, ReferenceHalf, Tofu, RandHalf, TofuHalf),
		checks: func(s *sweep) []ShapeCheck {
			ref, tofuHalf := s.top(0).Speedup, s.top(4).Speedup
			refPrev, tofuPrev := s.prev(0).Speedup, s.prev(4).Speedup
			return []ShapeCheck{
				{
					Desc:   "Tofu Half clearly outperforms the reference at the largest scale",
					Pass:   tofuHalf > 1.2*ref,
					Detail: fmt.Sprintf("Tofu Half %.0f vs Reference %.0f at %d ranks (paper: ~3x at 8192)", tofuHalf, ref, topRung(s.ranks)),
				},
				{
					Desc: "Tofu Half holds its performance at the top of the sweep while the reference declines",
					// Tofu Half stays within noise of its plateau (or grows) and
					// keeps a growing margin over the reference.
					Pass:   tofuHalf > 0.95*tofuPrev && tofuHalf/ref > tofuPrev/refPrev*0.95,
					Detail: fmt.Sprintf("Tofu Half %.0f -> %.0f, Reference %.0f -> %.0f", tofuPrev, tofuHalf, refPrev, ref),
				},
			}
		},
	},
	{
		id:        "fig14",
		listTitle: "Average search time per rank",
		title:     "Average search time per rank",
		paper:     "Figure 14: skewed selection with half-stealing greatly diminishes time spent searching for work.",
		columns:   append(onePerNode(Reference), everyPlacement(TofuHalf)...),
		extra: []sweepMetric{{"Mean search time (ms)", 3,
			func(r *core.Result) float64 { return r.MeanSearchTime.Seconds() * 1e3 }}},
		checks: func(s *sweep) []ShapeCheck {
			ref, opt := s.top(0).MeanSearchTime.Seconds()*1e3, s.top(1).MeanSearchTime.Seconds()*1e3
			return []ShapeCheck{{
				Desc:   "Tofu Half searches for work far less than the reference at the largest scale",
				Pass:   opt < ref,
				Detail: fmt.Sprintf("Tofu Half %.3fms vs Reference %.3fms at %d ranks", opt, ref, topRung(s.ranks)),
			}}
		},
	},
	{
		id:        "fig15",
		listTitle: "Failed steals, reference vs Tofu Half",
		title:     "Failed steals, reference vs Tofu Half",
		paper:     "Figure 15: failed steals decrease as a result of better work distribution.",
		columns:   append(onePerNode(Reference), everyPlacement(TofuHalf)...),
		extra:     []sweepMetric{failedTable},
		checks: func(s *sweep) []ShapeCheck {
			ref, opt := float64(s.top(0).FailedSteals), float64(s.top(1).FailedSteals)
			return []ShapeCheck{{
				Desc:   "Tofu Half fails fewer steals than the reference at the largest scale",
				Pass:   opt < ref,
				Detail: fmt.Sprintf("Tofu Half %.0f vs Reference %.0f at %d ranks", opt, ref, topRung(s.ranks)),
			}}
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

// run executes the figure's columns up scale's sweep ladder and renders
// its metric tables, the speedup plot and its checks.
func (f *sweepFigure) run(scale *Scale, seed uint64) (*Report, error) {
	ranks, tree := scale.sweepRanks, scale.sweepTree
	var cfgs []core.Config
	for _, c := range f.columns {
		for _, n := range ranks {
			cfg := c.v.Config(n, tree, seed)
			cfg.Placement = c.pl
			cfg.CollectTrace = f.traced
			cfgs = append(cfgs, cfg)
		}
	}
	res, err := Execute(cfgs)
	if err != nil {
		return nil, err
	}
	s := &sweep{ranks: ranks}
	for i := range f.columns {
		s.res = append(s.res, res[i*len(ranks):(i+1)*len(ranks)])
	}

	rep := &Report{ID: f.id, Title: f.title, Paper: f.paper}
	for _, m := range append([]sweepMetric{speedupTable}, f.extra...) {
		t := &Table{Title: m.title, Columns: []string{"ranks"}}
		for _, c := range f.columns {
			t.Columns = append(t.Columns, c.String())
		}
		for i, n := range ranks {
			row := []string{fmt.Sprintf("%d", n)}
			for c := range f.columns {
				row = append(row, fmtFloat(m.of(s.res[c][i]), m.prec))
			}
			t.Rows = append(t.Rows, row)
		}
		rep.Tables = append(rep.Tables, t)
	}
	var series []Series
	for c, col := range f.columns {
		sr := Series{Name: col.String()}
		for i, n := range ranks {
			sr.X = append(sr.X, float64(n))
			sr.Y = append(sr.Y, s.res[c][i].Speedup)
		}
		series = append(series, sr)
	}
	rep.Plots = append(rep.Plots, ASCIIPlot("Speedup vs ranks", series, 48, 12))
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"Rank counts %s the paper's 1024-8192 (scale=%v); workload %s.", ladderScale(ranks, "scaled 1/%d from", "are"), scale, treeName(tree)))
	rep.Checks = f.checks(s)
	return rep, nil
}
