package harness

import (
	"fmt"
	"strconv"

	"distws/internal/core"
	"distws/internal/sim"
	"distws/internal/term"
	"distws/internal/topology"
	"distws/internal/victim"
)

// Ablations probe the design choices DESIGN.md calls out. They are not
// figures from the paper, but each connects to a claim in it. Each is a
// row of ablations: cells, each a variant with one configuration field
// set, run at the scale's ablation size and read through result
// columns. ablation.run runs any row.

func init() {
	for i := range ablations {
		a := &ablations[i]
		register(Experiment{ID: a.id, Title: a.listTitle, Run: a.run})
	}
}

// ablationCell is one run: v's experiment configuration with set, when
// not nil, applied to it.
type ablationCell struct {
	label string
	v     Variant
	set   func(*core.Config)
}

// knob is one cell of v per value, labelled with the value.
func knob[T any](v Variant, set func(*core.Config, T), values ...T) []ablationCell {
	cells := make([]ablationCell, len(values))
	for i, x := range values {
		cells[i] = ablationCell{fmt.Sprint(x), v, func(c *core.Config) { set(c, x) }}
	}
	return cells
}

// selector is Rand Half with its selector replaced by f.
func selector(label string, f victim.Factory) ablationCell {
	return ablationCell{label, RandHalf, func(c *core.Config) { c.Selector = f }}
}

// resultColumn is a table column: its header and one run's cell.
type resultColumn struct {
	header string
	cell   func(*core.Result) string
}

var (
	speedupCol    = resultColumn{"speedup", func(r *core.Result) string { return fmtFloat(r.Speedup, 1) }}
	efficiencyCol = resultColumn{"efficiency", func(r *core.Result) string { return fmtFloat(r.Efficiency, 3) }}
	failedCol     = resultColumn{"failed steals", func(r *core.Result) string { return fmt.Sprint(r.FailedSteals) }}
	chunksCol     = resultColumn{"chunks moved", func(r *core.Result) string { return fmt.Sprint(r.ChunksTransferred) }}
	searchCol     = resultColumn{"mean search (ms)", func(r *core.Result) string { return fmtFloat(r.MeanSearchTime.Seconds()*1e3, 3) }}
	makespanCol   = resultColumn{"makespan", func(r *core.Result) string { return fmtDur(r.Makespan) }}
	roundsCol     = resultColumn{"token rounds", func(r *core.Result) string { return fmt.Sprint(r.TerminationRounds) }}
	nodesCol      = resultColumn{"nodes", func(r *core.Result) string { return fmt.Sprint(r.Nodes) }}
	prematureCol  = resultColumn{"premature", func(r *core.Result) string { return fmt.Sprint(r.Premature) }}
	abortedCol    = resultColumn{"aborted", func(r *core.Result) string { return fmt.Sprint(r.AbortedSteals) }}
)

// ablation is one ablation experiment.
type ablation struct {
	id string
	// listTitle is the registry's (experiments -list); title is the
	// report's, with a %d for the rank count.
	listTitle, title, paper string
	// table titles the results table; axis heads its first column, the
	// cells' labels.
	table, axis string
	cells       []ablationCell
	columns     []resultColumn
	// plot, when set, titles a plot of speedup against the cells'
	// labels read as numbers.
	plot string
	// pivot, when set, lays the table out instead of one row per cell:
	// it returns the headers after axis, and the rows.
	pivot func(res []*core.Result) ([]string, [][]string)
	// checks reads the results by their cell's index.
	checks func(res []*core.Result, scale *Scale) []ShapeCheck
}

// The sweeps whose checks or tables name their values.
var (
	chunkSizes    = []int{1, 2, 4, 8, 20, 64}
	pollIntervals = []int{1, 5, 20, 100}
	jitterLevels  = []float64{0, 0.1, 0.3}
)

var ablations = []ablation{
	{
		// The paper keeps the UTS default of 20 nodes per chunk; at our
		// scaled tree sizes large chunks leave near-critical stacks
		// unstealable, which is why the chunk is scaled down (DESIGN.md §2).
		id:        "ablation-chunk",
		listTitle: "A1: chunk size sweep",
		title:     "A1: chunk size sweep (%d ranks, Rand Half)",
		paper:     "Olivier et al. (cited in §II-A) studied chunk size; the paper fixes 20.",
		table:     "Chunk size vs performance",
		axis:      "chunk",
		cells:     knob(RandHalf, func(c *core.Config, n int) { c.ChunkSize = n }, chunkSizes...),
		columns:   []resultColumn{speedupCol, efficiencyCol, failedCol, chunksCol},
		plot:      "speedup vs chunk size",
		checks: func(res []*core.Result, _ *Scale) []ShapeCheck {
			best, bestChunk := 0.0, 0
			for i, r := range res {
				if r.Speedup > best {
					best, bestChunk = r.Speedup, chunkSizes[i]
				}
			}
			sp4, sp20 := res[2].Speedup, res[4].Speedup
			return []ShapeCheck{{"at scaled-down tree sizes, the experiment chunk (4) outperforms the paper's chunk of 20",
				sp4 > sp20, fmt.Sprintf("chunk4 %.1f vs chunk20 %.1f; best %.1f at chunk=%d", sp4, sp20, best, bestChunk)}}
		},
	},
	{
		// Why the engine polls every node expansion: coarser progress
		// engines inflate the victim-side response delay until
		// latency-aware selection cannot matter.
		id:        "ablation-poll",
		listTitle: "A2: poll interval (progress-engine granularity)",
		title:     "A2: poll interval (%d ranks, Tofu Half)",
		paper:     "The reference MPI implementation makes communication progress every work-loop iteration (§II-A).",
		table:     "Poll interval vs performance",
		axis:      "poll (cost units)",
		cells:     knob(TofuHalf, func(c *core.Config, n int) { c.PollInterval = n }, pollIntervals...),
		columns:   []resultColumn{speedupCol, {"mean search time (ms)", searchCol.cell}},
		checks: func(res []*core.Result, _ *Scale) []ShapeCheck {
			first, last := res[0].Speedup, res[len(res)-1].Speedup
			return []ShapeCheck{{"a coarser progress engine degrades performance", last < first,
				fmt.Sprintf("speedup %.1f at poll=1 vs %.1f at poll=%d", first, last, pollIntervals[len(pollIntervals)-1])}}
		},
	},
	{
		// The paper's three strategies and the extension baselines.
		id:        "ablation-selectors",
		listTitle: "A3: all victim selectors",
		title:     "A3: selector comparison (%d ranks, StealHalf, 1/N)",
		paper:     "Extends §IV with the hierarchical and lifeline baselines from the related work (§VI).",
		table:     "Selector vs performance",
		axis:      "selector",
		cells: []ablationCell{
			selector("RoundRobin", victim.NewRoundRobin), selector("Rand", victim.NewUniformRandom),
			selector("Tofu", victim.NewDistanceSkewed), selector("LastVictim", victim.NewLastVictim),
			selector("Hierarchical", victim.NewHierarchical), selector("Lifeline", victim.NewLifeline),
		},
		columns: []resultColumn{speedupCol, failedCol, searchCol},
		checks: func(res []*core.Result, scale *Scale) []ShapeCheck {
			rr, rnd, tofu := res[0].Speedup, res[1].Speedup, res[2].Speedup
			c := ShapeCheck{"every randomized selector beats the deterministic round robin", rnd > rr && tofu > rr,
				fmt.Sprintf("RR %.1f, Rand %.1f, Tofu %.1f", rr, rnd, tofu)}
			if scale.toy {
				// At toy scale the selectors are within noise of each
				// other; only sanity-check that none collapses.
				c.Desc = "all selectors complete within 2x of each other (toy scale; see Default for the ordering)"
				c.Pass = rnd > 0.5*rr && tofu > 0.5*rr
			}
			return []ShapeCheck{c}
		},
	},
	{
		id:        "ablation-term",
		listTitle: "A4: termination detectors",
		title:     "A4: termination detection (%d ranks, Rand Half)",
		paper:     "The reference uses a token ring (§II-A); Safra adds message counting for provable safety.",
		table:     "Detector comparison",
		axis:      "detector",
		cells: []ablationCell{
			{"Safra", RandHalf, func(c *core.Config) { c.Detector = term.NewSafra }},
			{"Ring", RandHalf, func(c *core.Config) { c.Detector = term.NewRing }},
		},
		columns: []resultColumn{makespanCol, roundsCol, {"nodes counted", nodesCol.cell}, prematureCol},
		checks: func(res []*core.Result, _ *Scale) []ShapeCheck {
			return []ShapeCheck{sameTraversal(res, "both detectors complete the traversal with identical node counts",
				fmt.Sprintf("Safra %d vs Ring %d nodes", res[0].Nodes, res[1].Nodes))}
		},
	},
	{
		// The weight exponent k in w = 1/d^k: k = 0 is uniform random,
		// k = 1 the paper's choice.
		id:        "ablation-skew",
		listTitle: "A5: skew exponent",
		title:     "A5: skew exponent sweep (%d ranks, StealHalf, 1/N)",
		paper:     "The paper weighs victims by 1/e(i,j); the sweep shows the conclusions do not hinge on the exact exponent.",
		table:     "Skew exponent vs performance",
		axis:      "k",
		cells: knob(TofuHalf, func(c *core.Config, k float64) {
			c.Selector = func(job *topology.Job, seed uint64) victim.Selector { return victim.NewDistanceSkewedExp(job, seed, k) }
		}, 0, 0.5, 1, 2, 4),
		columns: []resultColumn{speedupCol, searchCol},
		checks: func(res []*core.Result, _ *Scale) []ShapeCheck {
			lo, hi := res[0].Speedup, res[0].Speedup
			for _, r := range res {
				lo, hi = min(lo, r.Speedup), max(hi, r.Speedup)
			}
			return []ShapeCheck{{"performance is robust to the skew exponent (no pathological collapse)", lo > 0.5*hi,
				fmt.Sprintf("speedups in [%.1f, %.1f]", lo, hi)}}
		},
	},
	{
		// What the core's retry backoff changes against the immediate
		// retry of the other tree experiments (DESIGN.md §6).
		id:        "ablation-backoff",
		listTitle: "A6: retry backoff",
		title:     "A6: retry backoff (%d ranks, Rand Half)",
		paper:     "The reference retries failed steals immediately; backoff is a simulation-cost control for very large runs.",
		table:     "Backoff policy comparison",
		axis:      "policy",
		cells: []ablationCell{
			{"disabled (reference)", RandHalf, nil},
			{"default", RandHalf, func(c *core.Config) { c.ImmediateRetry = false }},
		},
		columns: []resultColumn{speedupCol, failedCol, nodesCol},
		checks: func(res []*core.Result, _ *Scale) []ShapeCheck {
			imm, back := res[0], res[1]
			return []ShapeCheck{
				sameTraversal(res, "backoff does not change what is computed", fmt.Sprintf("%d vs %d nodes", imm.Nodes, back.Nodes)),
				{"backoff changes performance by a bounded factor", back.Speedup > 0.5*imm.Speedup && back.Speedup < 2*imm.Speedup,
					fmt.Sprintf("disabled %.1f vs default %.1f", imm.Speedup, back.Speedup)},
			}
		},
	},
	{
		// The paper's two-sided steal transport against an RDMA-style
		// one-sided one (its §VII future work), for a good and a bad
		// victim selector.
		id:        "ablation-protocol",
		listTitle: "A7: one-sided vs two-sided steals",
		title:     "A7: steal transport (%d ranks, 1/N)",
		paper:     "§VII suggests one-sided communication as the next optimization beyond victim selection.",
		table:     "Transport comparison",
		axis:      "configuration",
		cells: []ablationCell{
			{"Reference / two-sided", Reference, nil}, {"Reference / one-sided", Reference, oneSided},
			{"Tofu Half / two-sided", TofuHalf, nil}, {"Tofu Half / one-sided", TofuHalf, oneSided},
		},
		columns: []resultColumn{speedupCol, searchCol, failedCol},
		checks: func(res []*core.Result, _ *Scale) []ShapeCheck {
			ref2, ref1, tofu2, tofu1 := res[0].Speedup, res[1].Speedup, res[2].Speedup, res[3].Speedup
			return []ShapeCheck{
				sameTraversal(res, "both transports compute the same traversal", fmt.Sprintf("node counts %v", nodeCounts(res))),
				{"removing the victim-interruption cost (one-sided) never hurts performance materially",
					ref1 >= ref2*0.8 && tofu1 >= tofu2*0.8,
					fmt.Sprintf("reference %.1f -> %.1f, Tofu Half %.1f -> %.1f", ref2, ref1, tofu2, tofu1)},
			}
		},
	},
	{
		// Dinan et al.'s aborting steals at several timeout values.
		id:        "ablation-aborts",
		listTitle: "A8: aborting steals",
		title:     "A8: aborting steals (%d ranks, Rand Half)",
		paper:     "Dinan et al.'s aborting steals let a steal fail fast when no work is available (§VI).",
		table:     "Abort timeout vs behaviour",
		axis:      "timeout",
		cells: append([]ablationCell{{"disabled", RandHalf, nil}}, knob(RandHalf,
			func(c *core.Config, d sim.Duration) { c.StealTimeout = d },
			200*sim.Microsecond, 50*sim.Microsecond, 10*sim.Microsecond)...),
		columns: []resultColumn{speedupCol, abortedCol, nodesCol},
		checks: func(res []*core.Result, _ *Scale) []ShapeCheck {
			tightest := res[len(res)-1].AbortedSteals
			return []ShapeCheck{
				sameTraversal(res, "aborting steals never lose work", fmt.Sprintf("node counts %v", nodeCounts(res))),
				{"aggressive timeouts actually abort", tightest > 0, fmt.Sprintf("%d aborts at the tightest timeout", tightest)},
			}
		},
	},
	{
		// The reference-vs-random comparison under multiplicative latency
		// noise: the conclusions do not depend on perfectly clean
		// latencies. One row per jitter level, one column per variant.
		id:        "ablation-jitter",
		listTitle: "A9: latency jitter robustness",
		title:     "A9: latency jitter (%d ranks, 1/N)",
		paper:     "Robustness check: the paper's orderings should survive network noise.",
		table:     "Makespan under latency jitter",
		axis:      "jitter",
		cells:     append(knob(Reference, jitter, jitterLevels...), knob(RandHalf, jitter, jitterLevels...)...),
		pivot: func(res []*core.Result) ([]string, [][]string) {
			var rows [][]string
			for i, frac := range jitterLevels {
				ref, rnd := res[i], res[len(jitterLevels)+i]
				rows = append(rows, []string{fmt.Sprintf("±%.0f%%", frac*100),
					fmtDur(ref.Makespan), fmtDur(rnd.Makespan), fmt.Sprint(rnd.Makespan < ref.Makespan)})
			}
			return []string{"Reference", "Rand Half", "Rand Half wins"}, rows
		},
		checks: func(res []*core.Result, scale *Scale) []ShapeCheck {
			if scale.toy {
				return []ShapeCheck{{"jittered runs complete correctly (ordering checked at default scale)", true, "toy scale"}}
			}
			ok := true
			for i := range jitterLevels {
				ok = ok && res[len(jitterLevels)+i].Makespan < res[i].Makespan
			}
			return []ShapeCheck{{"random selection beats the reference at every jitter level", ok,
				fmt.Sprintf("jitter levels %v", jitterLevels)}}
		},
	},
}

func oneSided(c *core.Config) { c.Protocol = core.OneSided }

// jitter puts multiplicative noise of ±frac on every latency.
func jitter(c *core.Config, frac float64) {
	if frac > 0 {
		c.Latency = topology.NewJitterLatency(topology.DefaultLatency(), frac, c.Seed)
	}
}

// sameTraversal checks that every run counted the same nodes and none
// terminated prematurely.
func sameTraversal(res []*core.Result, desc, detail string) ShapeCheck {
	pass := true
	for _, r := range res {
		pass = pass && r.Nodes == res[0].Nodes && !r.Premature
	}
	return ShapeCheck{desc, pass, detail}
}

func nodeCounts(res []*core.Result) []uint64 {
	nodes := make([]uint64, len(res))
	for i, r := range res {
		nodes[i] = r.Nodes
	}
	return nodes
}

// run executes the cells at the scale's ablation size in one batch and
// renders the table, the plot and the checks.
func (a *ablation) run(scale *Scale, seed uint64) (*Report, error) {
	cfgs := make([]core.Config, len(a.cells))
	for i, c := range a.cells {
		cfgs[i] = c.v.Config(scale.ablationRanks, scale.ablationTree, seed)
		if c.set != nil {
			c.set(&cfgs[i])
		}
	}
	res, err := Execute(cfgs)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: a.table, Columns: []string{a.axis}}
	if a.pivot != nil {
		columns, rows := a.pivot(res)
		t.Columns, t.Rows = append(t.Columns, columns...), rows
	} else {
		for _, col := range a.columns {
			t.Columns = append(t.Columns, col.header)
		}
		for i, r := range res {
			row := []string{a.cells[i].label}
			for _, col := range a.columns {
				row = append(row, col.cell(r))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	rep := &Report{ID: a.id, Title: fmt.Sprintf(a.title, scale.ablationRanks), Paper: a.paper, Tables: []*Table{t}}
	if a.plot != "" {
		s := Series{Name: "speedup"}
		for i, r := range res {
			x, err := strconv.ParseFloat(a.cells[i].label, 64)
			if err != nil {
				return nil, fmt.Errorf("harness: %s plots cell %q, which is not a number", a.id, a.cells[i].label)
			}
			s.X, s.Y = append(s.X, x), append(s.Y, r.Speedup)
		}
		rep.Plots = []string{ASCIIPlot(a.plot, []Series{s}, 48, 10)}
	}
	rep.Checks = a.checks(res, scale)
	return rep, nil
}
