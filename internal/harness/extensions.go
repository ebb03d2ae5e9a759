package harness

import (
	"fmt"

	"distws/internal/core"
	"distws/internal/dag"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/victim"
)

// Extension experiments realize the paper's §VII future work.

func init() {
	register(Experiment{ID: "ext-dag", Title: "E1: work stealing with data dependencies (paper §VII)", Run: runExtDAG})
}

func dagWorkload(scale *Scale, seed uint64, dataMean int) (*dag.Graph, error) {
	return dag.Generate(dag.Params{
		Seed: seed, Layers: scale.dagLayers, WidthMean: scale.dagWidth, EdgesPerTask: 2,
		LocalityWindow: 2, CostMean: 20 * sim.Microsecond, DataMean: dataMean,
	})
}

// runGraph schedules g the way both parts of E1 do: one rank per node,
// task-granular steals of half the victim's ready tasks.
func runGraph(g *dag.Graph, ranks int, sel victim.Factory, seed uint64) (*core.Result, *core.GraphStats, error) {
	return core.RunGraph(core.Config{
		Ranks: ranks, Placement: topology.OnePerNode, Selector: sel,
		ChunkSize: 1, Steal: core.StealHalf, Seed: seed,
	}, g)
}

func runExtDAG(scale *Scale, seed uint64) (*Report, error) {
	ranks := scale.ablationRanks / 2
	rep := &Report{
		ID:    "ext-dag",
		Title: fmt.Sprintf("E1: DAG scheduling with dependencies (%d ranks, 1/N)", ranks),
		Paper: "§VII: with data dependencies, stealing triggers communications, so bandwidth and victim locality matter.",
	}

	// Part 1: selector comparison on a data-heavy graph.
	g, err := dagWorkload(scale, seed, 256<<10)
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"graph: %d tasks, total cost %v, critical path %v, %d MiB of edge data",
		g.Len(), g.TotalCost, g.CriticalPath(), g.TotalBytes>>20))

	sels := []struct {
		name string
		f    victim.Factory
	}{
		{"RoundRobin", victim.NewRoundRobin},
		{"Rand", victim.NewUniformRandom},
		{"Tofu", victim.NewDistanceSkewed},
	}
	t1 := &Table{
		Title:   "Victim selection on a data-heavy DAG (steal half)",
		Columns: []string{"selector", "makespan", "speedup", "GiB fetched", "fetch stall", "tasks stolen"},
	}
	bytes := map[string]float64{}
	for _, s := range sels {
		res, gs, err := runGraph(g, ranks, s.f, seed)
		if err != nil {
			return nil, err
		}
		bytes[s.name] = float64(gs.BytesFetched)
		t1.Rows = append(t1.Rows, []string{
			s.name, fmtDur(res.Makespan), fmtFloat(res.Speedup, 1),
			fmtFloat(float64(gs.BytesFetched)/(1<<30), 2),
			fmtDur(gs.FetchTime), fmt.Sprintf("%d", gs.TasksStolen),
		})
	}
	rep.Tables = append(rep.Tables, t1)

	// Part 2: bandwidth sensitivity — sweep the edge-data size with the
	// uniform selector to show the §VII prediction directly.
	t2 := &Table{
		Title:   "Bandwidth sensitivity (Rand, steal half)",
		Columns: []string{"edge data (KiB)", "makespan", "speedup", "fetch stall"},
	}
	var firstSpeed, lastSpeed float64
	sizes := scale.dagEdgeSizes
	for i, size := range sizes {
		gs, err := dagWorkload(scale, seed, size)
		if err != nil {
			return nil, err
		}
		res, stats, err := runGraph(gs, ranks, victim.NewUniformRandom, seed)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			firstSpeed = res.Speedup
		}
		lastSpeed = res.Speedup
		t2.Rows = append(t2.Rows, []string{
			fmt.Sprintf("%d", size>>10), fmtDur(res.Makespan),
			fmtFloat(res.Speedup, 1), fmtDur(stats.FetchTime),
		})
	}
	rep.Tables = append(rep.Tables, t2)

	rep.Checks = append(rep.Checks,
		ShapeCheck{
			Desc:   "locality-aware selection does not move more data than uniform selection",
			Pass:   bytes["Tofu"] <= bytes["Rand"]*1.1,
			Detail: fmt.Sprintf("Tofu %.2f GiB vs Rand %.2f GiB", bytes["Tofu"]/(1<<30), bytes["Rand"]/(1<<30)),
		},
		ShapeCheck{
			Desc:   "growing edge data degrades performance (the paper's bandwidth-sensitivity prediction)",
			Pass:   lastSpeed < firstSpeed,
			Detail: fmt.Sprintf("speedup %.1f at %dKiB vs %.1f at %dKiB", firstSpeed, sizes[0]>>10, lastSpeed, sizes[len(sizes)-1]>>10),
		},
	)
	return rep, nil
}
