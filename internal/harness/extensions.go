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

// dagConfig schedules g the way both parts of E1 do: one rank per
// node, task-granular steals of half the victim's ready tasks.
func dagConfig(g *dag.Graph, ranks int, sel victim.Factory, seed uint64) core.Config {
	return core.Config{
		Graph: g, Ranks: ranks, Placement: topology.OnePerNode, Selector: sel,
		ChunkSize: 1, Steal: core.StealHalf, Seed: seed,
	}
}

func runExtDAG(scale *Scale, seed uint64) (*Report, error) {
	ranks := scale.ablationRanks / 2
	rep := &Report{
		ID:    "ext-dag",
		Title: fmt.Sprintf("E1: DAG scheduling with dependencies (%d ranks, 1/N)", ranks),
		Paper: "§VII: with data dependencies, stealing triggers communications, so bandwidth and victim locality matter.",
	}

	// Part 1 compares selectors on a data-heavy graph; part 2 sweeps the
	// edge-data size with the uniform selector to show the §VII
	// prediction directly. Every run is one cell of one batch.
	g, err := dagWorkload(scale, seed, 256<<10)
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"graph: %d tasks, total cost %v, critical path %v, %d MiB of edge data",
		g.Len(), g.TotalCost, g.CriticalPath(), g.TotalBytes>>20))
	sels := []victim.Factory{victim.NewRoundRobin, victim.NewUniformRandom, victim.NewDistanceSkewed}
	var cfgs []core.Config
	for _, sel := range sels {
		cfgs = append(cfgs, dagConfig(g, ranks, sel, seed))
	}
	sizes := scale.dagEdgeSizes
	for _, size := range sizes {
		gs, err := dagWorkload(scale, seed, size)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, dagConfig(gs, ranks, victim.NewUniformRandom, seed))
	}
	res, err := Execute(cfgs)
	if err != nil {
		return nil, err
	}

	t1 := &Table{
		Title:   "Victim selection on a data-heavy DAG (steal half)",
		Columns: []string{"selector", "makespan", "speedup", "GiB fetched", "fetch stall", "tasks stolen"},
	}
	for i, r := range res[:len(sels)] {
		gs := r.Graph
		t1.Rows = append(t1.Rows, []string{
			r.Selector, fmtDur(r.Makespan), fmtFloat(r.Speedup, 1),
			fmtFloat(float64(gs.BytesFetched)/(1<<30), 2),
			fmtDur(gs.FetchTime), fmt.Sprintf("%d", r.ChunksTransferred*uint64(cfgs[i].ChunkSize)),
		})
	}
	rep.Tables = append(rep.Tables, t1)

	t2 := &Table{
		Title:   "Bandwidth sensitivity (Rand, steal half)",
		Columns: []string{"edge data (KiB)", "makespan", "speedup", "fetch stall"},
	}
	sweep := res[len(sels):]
	for i, r := range sweep {
		t2.Rows = append(t2.Rows, []string{
			fmt.Sprintf("%d", sizes[i]>>10), fmtDur(r.Makespan),
			fmtFloat(r.Speedup, 1), fmtDur(r.Graph.FetchTime),
		})
	}
	rep.Tables = append(rep.Tables, t2)

	rnd, tofu := float64(res[1].Graph.BytesFetched), float64(res[2].Graph.BytesFetched) // sels' order
	firstSpeed, lastSpeed := sweep[0].Speedup, sweep[len(sweep)-1].Speedup
	rep.Checks = []ShapeCheck{
		{
			Desc:   "locality-aware selection does not move more data than uniform selection",
			Pass:   tofu <= rnd*1.1,
			Detail: fmt.Sprintf("Tofu %.2f GiB vs Rand %.2f GiB", tofu/(1<<30), rnd/(1<<30)),
		},
		{
			Desc:   "growing edge data degrades performance (the paper's bandwidth-sensitivity prediction)",
			Pass:   lastSpeed < firstSpeed,
			Detail: fmt.Sprintf("speedup %.1f at %dKiB vs %.1f at %dKiB", firstSpeed, sizes[0]>>10, lastSpeed, sizes[len(sizes)-1]>>10),
		},
	}
	return rep, nil
}
