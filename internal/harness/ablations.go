package harness

import (
	"cmp"
	"fmt"

	"distws/internal/core"
	"distws/internal/sim"
	"distws/internal/term"
	"distws/internal/topology"
	"distws/internal/victim"
)

// Ablations probe the design choices DESIGN.md calls out. They are not
// figures from the paper, but each connects to a claim in it. Each runs
// at the scale's ablation size, one row per value of the field under
// study; A9 crosses its rows with two variants.

// selector is Rand Half with its selector replaced by f.
func selector(label string, f victim.Factory) cell {
	return cell{label, RandHalf, func(c *core.Config) { c.Selector = f }}
}

// The sweeps whose checks or tables name their values.
var (
	chunkSizes    = []int{1, 2, 4, 8, 20, 64}
	pollIntervals = []int{1, 5, 20, 100}
	jitterLevels  = []float64{0, 0.1, 0.3}
)

var ablations = []grid{
	{
		// The paper keeps the UTS default of 20 nodes per chunk; at our
		// scaled tree sizes large chunks leave near-critical stacks
		// unstealable, which is why the chunk is scaled down (DESIGN.md §2).
		id:        "ablation-chunk",
		listTitle: "A1: chunk size sweep",
		title:     "A1: chunk size sweep (%d ranks, Rand Half)",
		paper:     "Olivier et al. (cited in §II-A) studied chunk size; the paper fixes 20.",
		axis:      "chunk",
		rows:      fixed(knob(RandHalf, func(c *core.Config, n int) { c.ChunkSize = n }, chunkSizes...)...),
		// The one column names the plot's series.
		columns: []cell{{label: "speedup"}},
		tables:  []table{{"Chunk size vs performance", []column{speedupCol, efficiencyCol, failedCol, chunksCol}}},
		plot:    &plot{"speedup vs chunk size", 10, speedup},
		checks: func(res runs, _ *Scale) []ShapeCheck {
			best, bestChunk := 0.0, 0
			for i, row := range res {
				if row[0].Speedup > best {
					best, bestChunk = row[0].Speedup, chunkSizes[i]
				}
			}
			sp4, sp20 := res[2][0].Speedup, res[4][0].Speedup
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
		axis:      "poll (cost units)",
		rows:      fixed(knob(TofuHalf, func(c *core.Config, n int) { c.PollInterval = n }, pollIntervals...)...),
		tables:    []table{{"Poll interval vs performance", []column{speedupCol, column{"mean search time (ms)", searchCol.cell}}}},
		checks: func(res runs, _ *Scale) []ShapeCheck {
			first, last := res[0][0].Speedup, res.top(0).Speedup
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
		axis:      "selector",
		rows: fixed(
			selector("RoundRobin", victim.NewRoundRobin), selector("Rand", victim.NewUniformRandom),
			selector("Tofu", victim.NewDistanceSkewed), selector("LastVictim", victim.NewLastVictim),
			selector("Hierarchical", victim.NewHierarchical), selector("Lifeline", victim.NewLifeline),
		),
		tables: []table{{"Selector vs performance", []column{speedupCol, failedCol, searchCol}}},
		checks: func(res runs, scale *Scale) []ShapeCheck {
			rr, rnd, tofu := res[0][0].Speedup, res[1][0].Speedup, res[2][0].Speedup
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
		axis:      "detector",
		rows: fixed(
			cell{"Safra", RandHalf, func(c *core.Config) { c.Detector = term.NewSafra }},
			cell{"Ring", RandHalf, func(c *core.Config) { c.Detector = term.NewRing }},
		),
		tables: []table{{"Detector comparison", []column{makespanCol, roundsCol, column{"nodes counted", nodesCol.cell}, prematureCol}}},
		checks: func(res runs, _ *Scale) []ShapeCheck {
			return []ShapeCheck{sameTraversal(res, "both detectors complete the traversal with identical node counts",
				fmt.Sprintf("Safra %d vs Ring %d nodes", res[0][0].Nodes, res[1][0].Nodes))}
		},
	},
	{
		// The weight exponent k in w = 1/d^k: k = 0 is uniform random,
		// k = 1 the paper's choice.
		id:        "ablation-skew",
		listTitle: "A5: skew exponent",
		title:     "A5: skew exponent sweep (%d ranks, StealHalf, 1/N)",
		paper:     "The paper weighs victims by 1/e(i,j); the sweep shows the conclusions do not hinge on the exact exponent.",
		axis:      "k",
		rows: fixed(knob(TofuHalf, func(c *core.Config, k float64) {
			c.Selector = func(job *topology.Job, seed uint64) victim.Selector { return victim.NewDistanceSkewedExp(job, seed, k) }
		}, 0, 0.5, 1, 2, 4)...),
		tables: []table{{"Skew exponent vs performance", []column{speedupCol, searchCol}}},
		checks: func(res runs, _ *Scale) []ShapeCheck {
			lo, hi := res[0][0].Speedup, res[0][0].Speedup
			for _, row := range res {
				lo, hi = min(lo, row[0].Speedup), max(hi, row[0].Speedup)
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
		axis:      "policy",
		rows: fixed(
			cell{"disabled (reference)", RandHalf, nil},
			cell{"default", RandHalf, func(c *core.Config) { c.ImmediateRetry = false }},
		),
		tables: []table{{"Backoff policy comparison", []column{speedupCol, failedCol, nodesCol}}},
		checks: func(res runs, _ *Scale) []ShapeCheck {
			imm, back := res[0][0], res[1][0]
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
		axis:      "configuration",
		rows: fixed(
			cell{"Reference / two-sided", Reference, nil}, cell{"Reference / one-sided", Reference, oneSided},
			cell{"Tofu Half / two-sided", TofuHalf, nil}, cell{"Tofu Half / one-sided", TofuHalf, oneSided},
		),
		tables: []table{{"Transport comparison", []column{speedupCol, searchCol, failedCol}}},
		checks: func(res runs, _ *Scale) []ShapeCheck {
			ref2, ref1, tofu2, tofu1 := res[0][0].Speedup, res[1][0].Speedup, res[2][0].Speedup, res[3][0].Speedup
			return []ShapeCheck{
				sameTraversal(res, "both transports compute the same traversal", ""),
				{"removing the victim-interruption cost (one-sided) never hurts performance materially",
					ref1 >= ref2*0.8 && tofu1 >= tofu2*0.8,
					fmt.Sprintf("reference %.1f -> %.1f, Tofu Half %.1f -> %.1f", ref2, ref1, tofu2, tofu1)},
			}
		},
	},
	{
		// Dinan et al.'s aborting steals at several timeout values. A
		// steal round trip of this configuration takes 6.4-19.6 µs at
		// quick scale and 6.4-23.8 µs at default, so each timeout sits
		// inside that range: 18 µs cuts the tail (just above quick's
		// p99 of 17.6 µs, at default's p90), 14 µs the middle (between
		// the medians, 12.8 and 14.4 µs) and 10 µs most of it.
		id:        "ablation-aborts",
		listTitle: "A8: aborting steals",
		title:     "A8: aborting steals (%d ranks, Rand Half)",
		paper:     "Dinan et al.'s aborting steals let a steal fail fast when no work is available (§VI).",
		axis:      "timeout",
		rows: fixed(append([]cell{{"disabled", RandHalf, nil}}, knob(RandHalf,
			func(c *core.Config, d sim.Duration) { c.StealTimeout = d },
			18*sim.Microsecond, 14*sim.Microsecond, 10*sim.Microsecond)...)...),
		tables: []table{{"Abort timeout vs behaviour", []column{speedupCol, abortedCol, nodesCol}}},
		checks: func(res runs, _ *Scale) []ShapeCheck {
			tightest := res.top(0).AbortedSteals
			return []ShapeCheck{
				sameTraversal(res, "aborting steals never lose work", ""),
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
		axis:      "jitter",
		rows:      jitterRows,
		columns:   []cell{{"Reference", Reference, nil}, {"Rand Half", RandHalf, nil}},
		tables: []table{{"Makespan under latency jitter", []column{each(makespanCol),
			{"Rand Half wins", func(row []*core.Result, _ int) string { return fmt.Sprint(row[1].Makespan < row[0].Makespan) }}}}},
		checks: func(res runs, scale *Scale) []ShapeCheck {
			if scale.toy {
				return []ShapeCheck{{"jittered runs complete correctly (ordering checked at default scale)", true, "toy scale"}}
			}
			ok := true
			for _, row := range res {
				ok = ok && row[1].Makespan < row[0].Makespan
			}
			return []ShapeCheck{{"random selection beats the reference at every jitter level", ok,
				fmt.Sprintf("jitter levels %v", jitterLevels)}}
		},
	},
}

// jitterRows is one row per jitter level, labelled as a percentage.
func jitterRows(*Scale) []cell {
	rows := knob(Variant{}, jitter, jitterLevels...)
	for i, frac := range jitterLevels {
		rows[i].label = fmt.Sprintf("±%.0f%%", frac*100)
	}
	return rows
}

func oneSided(c *core.Config) { c.Protocol = core.OneSided }

// jitter puts multiplicative noise of ±frac on every latency.
func jitter(c *core.Config, frac float64) {
	if frac > 0 {
		c.Latency = topology.NewJitterLatency(topology.DefaultLatency(), frac, c.Seed)
	}
}

// sameTraversal checks that every run of the grid counted the same
// nodes and none terminated prematurely; an empty detail lists the node
// counts.
func sameTraversal(res runs, desc, detail string) ShapeCheck {
	pass, nodes := true, []uint64{}
	for _, row := range res {
		for _, r := range row {
			pass, nodes = pass && r.Nodes == res[0][0].Nodes && !r.Premature, append(nodes, r.Nodes)
		}
	}
	return ShapeCheck{desc, pass, cmp.Or(detail, fmt.Sprintf("node counts %v", nodes))}
}
