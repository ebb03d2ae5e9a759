// Latency-metric walkthrough: reproduces the paper's §III methodology
// end to end. Runs a traced execution, computes the occupancy curve and
// the starting/ending latencies SL(x)/EL(x), exercises the clock-skew
// correction the paper applies to real traces, and writes the trace as
// JSON Lines for external tooling.
//
//	go run ./examples/latencymetric [-trace trace.jsonl]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"distws/internal/core"
	"distws/internal/obs"
	"distws/internal/sim"
	"distws/internal/uts"
	"distws/internal/victim"
)

func main() {
	traceOut := flag.String("trace", "", "write the activity trace (JSONL) to this file")
	flag.Parse()

	res, err := core.Run(core.Config{
		Tree:         uts.MustPreset("H-SMALL").Params,
		Ranks:        128,
		Selector:     victim.NewRoundRobin,
		ChunkSize:    4,
		Seed:         3,
		CollectTrace: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	curve := obs.Occupancy(res.Trace)
	fmt.Printf("traced execution: %d ranks, makespan %v\n", res.Ranks, res.Makespan)
	fmt.Printf("max occupancy: %.1f%% (Wmax = %d workers)\n", curve.MaxOccupancy()*100, curve.Wmax())
	fmt.Printf("mean occupancy: %.1f%%\n\n", curve.MeanOccupancy()*100)

	fmt.Println("occupancy   SL (% runtime)   EL (% runtime)")
	for _, p := range curve.LatencyCurve(obs.OccupancySamples(9, 0.9)) {
		if !p.Reached {
			fmt.Printf("   %3.0f%%        (never reached)\n", p.Occupancy*100)
			continue
		}
		fmt.Printf("   %3.0f%%        %6.2f           %6.2f\n", p.Occupancy*100, p.SL*100, p.EL*100)
	}

	// The paper corrects its traces for clock skew between nodes; a
	// simulator's clock is perfectly synchronized, so demonstrate the
	// machinery by injecting a known skew and undoing it.
	skewed, offsets := res.Trace.InjectSkew(99, 50*sim.Microsecond)
	fixed := skewed.CorrectSkew(offsets)
	slBefore, _ := obs.Occupancy(skewed).StartingLatency(0.5)
	slAfter, _ := obs.Occupancy(fixed).StartingLatency(0.5)
	slTrue, _ := curve.StartingLatency(0.5)
	fmt.Printf("\nclock-skew demo: SL(50%%) skewed=%.3f%% corrected=%.3f%% true=%.3f%%\n",
		slBefore*100, slAfter*100, slTrue*100)

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.Trace.WriteJSONL(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s (%d sessions)\n", *traceOut, res.Trace.TotalSessions())
	}
}
