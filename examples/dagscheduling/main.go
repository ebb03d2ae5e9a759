// DAG scheduling: the paper's §VII future work, realized. Generates a
// random task graph with data dependencies (Cordeiro et al.-style
// layered DAG), schedules it with distributed work stealing, and shows
// how victim selection and edge-data size interact — "stealing a task
// can trigger massive communications".
//
//	go run ./examples/dagscheduling [-ranks 64] [-kib 256]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"distws/internal/core"
	"distws/internal/dag"
	"distws/internal/sim"
	"distws/internal/victim"
)

func main() {
	ranks := flag.Int("ranks", 64, "scheduler ranks")
	kib := flag.Int("kib", 256, "mean edge data size in KiB")
	flag.Parse()

	g, err := dag.Generate(dag.Params{
		Seed: 42, Layers: 40, WidthMean: 24, EdgesPerTask: 2,
		LocalityWindow: 2, CostMean: 20 * sim.Microsecond,
		DataMean: *kib << 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("task graph: %d tasks, total compute %v, critical path %v, %d MiB of edge data\n\n",
		g.Len(), g.TotalCost, g.CriticalPath(), g.TotalBytes>>20)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "selector\tmakespan\tspeedup\tdata fetched\tfetch stall\ttasks stolen")
	for _, s := range []struct {
		name string
		f    victim.Factory
	}{
		{"RoundRobin", victim.NewRoundRobin},
		{"Rand", victim.NewUniformRandom},
		{"Tofu (distance-skewed)", victim.NewDistanceSkewed},
	} {
		res, gs, err := core.RunGraph(core.Config{
			Ranks: *ranks, Selector: s.f,
			ChunkSize: 1, Steal: core.StealHalf, Seed: 1,
		}, g)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s\t%v\t%.1f\t%.2f GiB\t%v\t%d\n",
			s.name, res.Makespan, res.Speedup,
			float64(gs.BytesFetched)/(1<<30), gs.FetchTime, gs.TasksStolen)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nthe lower bound with infinite ranks and free communication is the critical path above;")
	fmt.Println("rerun with -kib 1 and -kib 1024 to see the bandwidth sensitivity the paper predicts.")
}
