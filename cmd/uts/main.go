// Command uts runs one simulated distributed UTS execution and prints a
// report in the style of the reference benchmark.
//
// Usage:
//
//	uts -tree H-SMALL -ranks 128 -placement 1/N -selector Tofu -steal half
//	uts -tree T3 -ranks 8 -trace trace.jsonl
//	uts -tree T3 -ranks 32 -trace t.jsonl -chrome t.json -obs :6060
//
// -trace also captures the protocol-level event log (steal round trips,
// token hops, quantum boundaries) into the JSONL file for cmd/tracetool;
// -chrome writes the same run as Chrome trace-event JSON for
// ui.perfetto.dev; -obs serves /metrics (Prometheus), /debug/vars and
// /debug/pprof/ on the given address for the duration of the process.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"distws/internal/core"
	"distws/internal/obs"
	"distws/internal/obs/causal"
	"distws/internal/obs/ledger"
	"distws/internal/obs/parprof"
	"distws/internal/obs/parprof/wallclock"
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/term"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
)

func main() {
	var (
		treeFlag      = flag.String("tree", "H-SMALL", "tree preset (see -listtrees)")
		ranksFlag     = flag.Int("ranks", 64, "number of simulated MPI ranks")
		placeFlag     = flag.String("placement", "1/N", "rank placement: 1/N, 8RR or 8G")
		selFlag       = flag.String("selector", "RoundRobin", "victim selector (see -listselectors)")
		stealFlag     = flag.String("steal", "one", "steal amount: one|half")
		chunkFlag     = flag.Int("chunk", 4, "nodes per chunk (UTS default is 20; scaled experiments use 4)")
		nodeCostFlag  = flag.Duration("nodecost", 0, "virtual time per child generation (default 1µs)")
		seedFlag      = flag.Uint64("seed", 1, "random seed")
		shardsFlag    = flag.Int("shards", 1, "parallel simulation shards (conservative time windows; 1 = sequential kernel)")
		parprofFlag   = flag.Bool("parprof", false, "profile the parallel kernel: window ledger, serialization causes, and a shard scaling report")
		parwallFlag   = flag.Bool("parwall", false, "with -parprof and -shards > 1: add the wall-clock busy/barrier-wait profile (host-dependent)")
		parJSONFlag   = flag.String("parprof-json", "", "with -parprof: write the shard scaling report as JSON to this file")
		detFlag       = flag.String("termination", "Safra", "termination detector: Safra|Ring")
		traceFlag     = flag.String("trace", "", "write the activity trace + event log (JSONL) to this file")
		chromeFlag    = flag.String("chrome", "", "write a Chrome trace-event JSON file (open in Perfetto)")
		eventsFlag    = flag.Bool("events", false, "collect the protocol event log even without -trace/-chrome")
		eventBufFlag  = flag.Int("eventbuf", 0, "per-rank event ring capacity (0 = default)")
		obsFlag       = flag.String("obs", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address (e.g. :6060)")
		manifestFlag  = flag.String("manifest", "", "write the run manifest (ledger JSON) to this file; diff runs with tracetool -diff")
		serveFlag     = flag.Bool("serve", false, "open-system serving mode: jobs arrive continuously instead of one closed batch (-arrivals, -tenants, -horizon); -tree sets the per-job workload")
		arrivalsFlag  = flag.String("arrivals", "poisson:2ms", "with -serve: comma-separated per-tenant arrival processes, cycled across tenants: poisson:MEAN, gamma:MEAN:SHAPE, weibull:MEAN:SHAPE — or a single replay:FILE (JSONL arrival log) feeding every tenant")
		tenantsFlag   = flag.Int("tenants", 2, "with -serve: number of traffic sources")
		horizonFlag   = flag.Duration("horizon", 50*time.Millisecond, "with -serve: arrival horizon (virtual time); the run drains admitted jobs past it")
		faultsFlag    = flag.String("faults", "", "JSON fault-plan file (crashes, stragglers, lossy links)")
		crashFlag     = flag.String("crash", "", "inline crash schedule: rank@time,... (e.g. 3@40us,11@2ms)")
		stragglerFlag = flag.String("straggler", "", "inline stragglers: rank@compute[xsend],... (e.g. 5@3x2)")
		listTrees     = flag.Bool("listtrees", false, "list tree presets and exit")
		listSel       = flag.Bool("listselectors", false, "list victim selectors and exit")
	)
	flag.Parse()

	if *listTrees {
		for _, n := range uts.PresetNames() {
			info := uts.MustPreset(n)
			fmt.Printf("%-10s %-9v %s\n", n, info.Params.Type, info.Comment)
		}
		return
	}
	if *listSel {
		for _, n := range victim.StrategyNames() {
			fmt.Println(n)
		}
		fmt.Println("Tofu^K (Tofu with weight 1/e^K for a number K >= 0)")
		return
	}

	info, ok := uts.Preset(*treeFlag)
	if !ok {
		fatalf("unknown tree preset %q (-listtrees)", *treeFlag)
	}
	var placement topology.Placement
	switch strings.ToUpper(*placeFlag) {
	case "1/N":
		placement = topology.OnePerNode
	case "8RR":
		placement = topology.EightRoundRobin
	case "8G":
		placement = topology.EightGrouped
	default:
		fatalf("unknown placement %q (1/N, 8RR, 8G)", *placeFlag)
	}
	selector, err := victim.Lookup(*selFlag)
	if err != nil {
		fatalf("%v (-listselectors)", err)
	}
	var steal core.StealPolicy
	switch strings.ToLower(*stealFlag) {
	case "one":
		steal = core.StealOne
	case "half":
		steal = core.StealHalf
	default:
		fatalf("unknown steal policy %q (one|half)", *stealFlag)
	}
	detector, ok := term.Detectors[*detFlag]
	if !ok {
		fatalf("unknown termination detector %q (Safra|Ring)", *detFlag)
	}

	collectEvents := *eventsFlag || *traceFlag != "" || *chromeFlag != ""
	if *eventBufFlag != 0 && !collectEvents {
		fatalf("-eventbuf has no effect without -events, -trace or -chrome")
	}
	plan, err := buildFaultPlan(*faultsFlag, *crashFlag, *stragglerFlag, *seedFlag)
	if err != nil {
		fatalf("%v", err)
	}
	if !*serveFlag {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "arrivals", "tenants", "horizon":
				fatalf("-%s has no effect without -serve", f.Name)
			}
		})
	}
	var serveSpec *serve.Spec
	if *serveFlag {
		serveSpec, err = buildServeSpec(*arrivalsFlag, *tenantsFlag, sim.Duration(*horizonFlag), info.Params)
		if err != nil {
			fatalf("%v", err)
		}
	}
	var reg *obs.Registry
	if *obsFlag != "" {
		reg = obs.NewRegistry()
		go func() {
			if err := http.ListenAndServe(*obsFlag, obs.Handler(reg)); err != nil {
				fmt.Fprintf(os.Stderr, "uts: obs server: %v\n", err)
			}
		}()
		fmt.Printf("observability: http://%s/metrics (also /debug/vars, /debug/pprof/)\n", *obsFlag)
	}

	cfg := core.Config{
		Tree:          info.Params,
		Ranks:         *ranksFlag,
		Placement:     placement,
		Selector:      selector,
		Steal:         steal,
		ChunkSize:     *chunkFlag,
		NodeCost:      sim.Duration(*nodeCostFlag),
		Detector:      detector,
		Seed:          *seedFlag,
		CollectTrace:  *traceFlag != "" || *chromeFlag != "",
		CollectEvents: collectEvents,
		EventBuffer:   *eventBufFlag,
		Metrics:       reg,
		Faults:        plan,
		Shards:        *shardsFlag,
		ParProfile:    *parprofFlag,
		Serve:         serveSpec,
	}
	if err := checkShards(*shardsFlag, *ranksFlag); err != nil {
		fatalf("%v", err)
	}
	if *parwallFlag && !*parprofFlag {
		fatalf("-parwall requires -parprof")
	}
	if *parJSONFlag != "" && !*parprofFlag {
		fatalf("-parprof-json requires -parprof")
	}
	var wallProf *wallclock.Profile
	if *parwallFlag && *shardsFlag > 1 {
		wallProf = wallclock.New(*shardsFlag)
		cfg.ParWallProbe = wallProf
	}
	res, err := core.Run(cfg)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("UTS distributed work-stealing simulation\n")
	fmt.Printf("  tree:            %s (%v)\n", info.Name, info.Params.Type)
	fmt.Printf("  ranks:           %d (%v placement)\n", res.Ranks, res.Placement)
	fmt.Printf("  selector:        %s, steal %v, chunk %d\n", res.Selector, res.Steal, *chunkFlag)
	fmt.Printf("  termination:     %s (%d rounds)\n", res.Detector, res.TerminationRounds)
	fmt.Printf("\n")
	fmt.Printf("  tree nodes:      %d (%d leaves, depth %d)\n", res.Nodes, res.Leaves, res.MaxDepth)
	fmt.Printf("  wallclock:       %v (virtual)\n", res.Makespan)
	fmt.Printf("  sequential time: %v (virtual)\n", res.SequentialTime)
	fmt.Printf("  speedup:         %.2f\n", res.Speedup)
	fmt.Printf("  efficiency:      %.3f\n", res.Efficiency)
	fmt.Printf("\n")
	fmt.Printf("  steal requests:  %d (%d ok, %d failed)\n", res.StealRequests, res.SuccessfulSteals, res.FailedSteals)
	fmt.Printf("  chunks moved:    %d\n", res.ChunksTransferred)
	fmt.Printf("  mean search:     %v per rank\n", res.MeanSearchTime)
	if res.MeanSessionDuration > 0 {
		fmt.Printf("  mean session:    %v\n", res.MeanSessionDuration)
	}
	fmt.Printf("  messages sent:   %d\n", res.Comm.TotalSent())
	if res.Premature {
		fmt.Printf("  WARNING: premature termination detected (incomplete traversal)\n")
	}

	if res.MaxMigrationDepth > 0 {
		fmt.Printf("  work lineage:    max migration depth %d\n", res.MaxMigrationDepth)
	}

	if st := res.Serve; st != nil {
		fmt.Printf("\n  open-system serving:\n")
		fmt.Printf("  horizon:         %v (drained at %v)\n", sim.Duration(*horizonFlag), sim.Duration(st.Finish))
		fmt.Printf("  jobs:            %d arrived = %d admitted + %d rejected; %d done\n",
			st.Arrived, st.Admitted, st.Rejected, st.Done)
		fmt.Printf("  fairness (Jain): %.3f\n", st.Jain)
		for _, ts := range st.Tenants {
			class := ts.Class
			if class == "" {
				class = "best-effort"
			}
			fmt.Printf("    %-8s %-12s arrived %4d  admitted %4d  rejected %4d  slo-met %4d  goodput %8.1f/s\n",
				ts.Name, class, ts.Arrived, ts.Admitted, ts.Rejected, ts.SLOMet, ts.GoodputPerSec)
			fmt.Printf("    %-8s %-12s sojourn p50 %v  p95 %v  p99 %v\n",
				"", "", ts.SojournP50, ts.SojournP95, ts.SojournP99)
		}
	}

	if res.PerRankFaults != nil {
		fmt.Printf("\n  fault injection:\n")
		fmt.Printf("  crashed ranks:   %d\n", res.CrashedRanks)
		fmt.Printf("  nodes generated: %d (%d completed, %d lost)\n",
			res.NodesGenerated, res.Nodes, res.LostNodes)
		fmt.Printf("  lost messages:   %d (work in flight to/from dead ranks)\n", res.LostMessages)
		fmt.Printf("  msgs dropped:    %d\n", res.Comm.TotalDropped())
		fmt.Printf("  token regens:    %d\n", res.TokenRegens)
		if res.Recoveries > 0 {
			fmt.Printf("  recoveries:      %d (mean latency %v)\n", res.Recoveries, res.MeanRecoveryLatency)
		}
		for _, f := range res.PerRankFaults {
			if !f.Crashed && f.LostNodes == 0 && f.Timeouts == 0 && f.Blacklists == 0 {
				continue
			}
			status := "survived"
			if f.Crashed {
				status = fmt.Sprintf("crashed @%v", sim.Duration(f.CrashedAt))
			}
			fmt.Printf("    rank %4d: %-18s lost %d nodes, %d timeouts, %d blacklists\n",
				f.Rank, status, f.LostNodes, f.Timeouts, f.Blacklists)
		}
	}

	// Everything below that reads the trace reads it through one
	// analysis, so -trace -chrome -manifest build one causal graph. The
	// causal aggregates land in the metrics registry here, outside
	// core.Run, so the engine's own exposition is untouched.
	a := causal.Analyze(res.Trace)
	if res.Trace != nil {
		c := a.Occupancy()
		fmt.Printf("  max occupancy:   %.1f%% (Wmax %d)\n", c.MaxOccupancy()*100, c.Wmax())
		fmt.Printf("  mean occupancy:  %.1f%%\n", c.MeanOccupancy()*100)
		if a.HasEvents() {
			fmt.Printf("  events recorded: %d (%d dropped from bounded rings)\n",
				res.Trace.TotalEvents(), res.Trace.TotalEventsDropped())
			p := a.Path()
			if reg != nil {
				causal.Publish(reg, a.Graph(), p, a.Blame())
			}
			fmt.Printf("  critical path:   %.1f%% compute, %.1f%% steal-rtt, %.1f%% transfer, %.1f%% token, %.1f%% wait\n",
				p.Share(causal.SegCompute), p.Share(causal.SegStealRTT),
				p.Share(causal.SegTransfer), p.Share(causal.SegToken), p.Share(causal.SegWait))
		}
		if *traceFlag != "" {
			writeFile(*traceFlag, res.Trace.WriteJSONL)
			fmt.Printf("  trace written:   %s (analyze with tracetool -in %s)\n", *traceFlag, *traceFlag)
		}
		if *chromeFlag != "" {
			opts := obs.ChromeOptions{Highlight: a.Highlights(), Pairs: a.Pairs(), ParWindows: parprof.ChromeWindows(res.Par)}
			writeFile(*chromeFlag, func(w io.Writer) error { return obs.WriteChromeTraceOpts(w, res.Trace, opts) })
			fmt.Printf("  chrome trace:    %s (load at ui.perfetto.dev)\n", *chromeFlag)
		}
	}

	// Parallel-kernel profiling rides outside core.Run, exactly like the
	// causal analyses: the ledger is read from the Result, the sim_par_*
	// metrics publish into the registry only here, and the scaling runs
	// are fresh stripped executions — the primary run's artifacts stay
	// byte-identical to an unprofiled run's.
	if *parprofFlag {
		parprof.Publish(reg, res.Par)
		fmt.Printf("\n")
		if err := res.Par.WriteText(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		if wallProf != nil {
			if err := wallProf.WriteText(os.Stdout); err != nil {
				fatalf("%v", err)
			}
		}
		sc := runScaling(cfg)
		fmt.Printf("\n")
		if err := sc.WriteText(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		if *parJSONFlag != "" {
			writeFile(*parJSONFlag, sc.WriteJSON)
			fmt.Printf("  scaling json:    %s\n", *parJSONFlag)
		}
	}

	// Manifest emission happens after the run, reading only the Result:
	// observer-effect-free by construction (the ledger tests assert it).
	if *manifestFlag != "" {
		spec := ledger.SpecFromConfig(info.Name, "", cfg)
		spec.Selector = *selFlag
		if *detFlag != "Safra" {
			spec.Detector = *detFlag
		}
		m := ledger.New(manifestID(*manifestFlag), spec, res, a)
		m.Generator = generator()
		if err := m.WriteFile(*manifestFlag); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("\n  manifest:        %s (compare runs with tracetool -diff)\n", *manifestFlag)
	}

	if *obsFlag != "" {
		fmt.Printf("\nrun complete; still serving %s — interrupt to exit\n", *obsFlag)
		select {}
	}
}

// buildServeSpec assembles the open-system spec from the serving flags:
// tenants t0..tN-1 share the -tree preset as their per-job workload, and
// the -arrivals entries are cycled across them. A single replay entry
// instead feeds every tenant from one JSONL arrival log (the format
// serve.WriteArrivals emits).
func buildServeSpec(arrivals string, tenants int, horizon sim.Duration, tree uts.Params) (*serve.Spec, error) {
	if tenants < 1 {
		return nil, fmt.Errorf("-tenants must be >= 1, got %d", tenants)
	}
	spec := &serve.Spec{Horizon: horizon, Placement: serve.PlaceRR}
	entries := strings.Split(arrivals, ",")
	var specs []serve.ArrivalSpec
	if len(entries) == 1 && strings.HasPrefix(entries[0], "replay:") {
		path := strings.TrimPrefix(entries[0], "replay:")
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("-arrivals: %w", err)
		}
		defer f.Close()
		traces, err := serve.ReadArrivals(f, tenants)
		if err != nil {
			return nil, fmt.Errorf("-arrivals %s: %w", path, err)
		}
		for _, tr := range traces {
			specs = append(specs, serve.ArrivalSpec{Process: serve.ProcReplay, Trace: tr})
		}
	} else {
		for _, e := range entries {
			a, err := parseArrival(strings.TrimSpace(e))
			if err != nil {
				return nil, err
			}
			specs = append(specs, a)
		}
	}
	for i := 0; i < tenants; i++ {
		spec.Tenants = append(spec.Tenants, serve.Tenant{
			Name:    fmt.Sprintf("t%d", i),
			Arrival: specs[i%len(specs)],
			Work:    serve.Workload{Kind: serve.WorkUTS, Tree: tree},
		})
	}
	return spec, nil
}

// parseArrival parses one -arrivals entry: poisson:MEAN,
// gamma:MEAN:SHAPE or weibull:MEAN:SHAPE (shape defaults to 1).
func parseArrival(entry string) (serve.ArrivalSpec, error) {
	parts := strings.Split(entry, ":")
	bad := func() (serve.ArrivalSpec, error) {
		return serve.ArrivalSpec{}, fmt.Errorf(
			"-arrivals entry %q: want poisson:MEAN, gamma:MEAN:SHAPE, weibull:MEAN:SHAPE or replay:FILE", entry)
	}
	if len(parts) < 2 {
		return bad()
	}
	mean, err := time.ParseDuration(parts[1])
	if err != nil {
		return bad()
	}
	a := serve.ArrivalSpec{Process: strings.ToLower(parts[0]), Mean: sim.Duration(mean)}
	switch a.Process {
	case serve.ProcPoisson:
		if len(parts) != 2 {
			return bad()
		}
	case serve.ProcGamma, serve.ProcWeibull:
		if len(parts) > 3 {
			return bad()
		}
		if len(parts) == 3 {
			shape, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return bad()
			}
			a.Shape = shape
		}
	default:
		return bad()
	}
	return a, nil
}

// manifestID derives the run label from the manifest file name.
func manifestID(path string) string {
	base := filepath.Base(path)
	base = strings.TrimSuffix(base, ".json")
	return strings.TrimSuffix(base, ".manifest")
}

// generator reports the producing binary's VCS revision when the build
// carries one. It is provenance, not configuration: ledger comparisons
// and the determinism contract exclude it.
func generator() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + dirty
}

func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	if err := write(f); err != nil {
		fatalf("writing %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		fatalf("closing %s: %v", path, err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// scalingShards is the shard ladder the scaling report walks.
var scalingShards = []int{1, 2, 4, 8}

// runScaling re-runs the configuration across the shard ladder (capped
// at the rank count), wall-timing each run. Every ladder run is
// stripped of tracing, metrics, and the wall probe so the wall columns
// compare like with like; the virtual columns are deterministic. The
// host-clock reads live here in package main — the engine itself never
// touches wall time (cmd/distwsvet enforces that).
func runScaling(cfg core.Config) parprof.Scaling {
	var sc parprof.Scaling
	for _, s := range scalingShards {
		if s > cfg.Ranks {
			break
		}
		c := cfg
		c.Shards = s
		c.ParProfile = true
		c.ParWallProbe = nil
		c.CollectTrace, c.CollectEvents, c.EventBuffer = false, false, 0
		c.Metrics = nil
		start := time.Now()
		r, err := core.Run(c)
		if err != nil {
			// A ladder point can be invalid (e.g. a fault plan that cannot
			// shard); report it and keep the rest of the table.
			fmt.Fprintf(os.Stderr, "uts: scaling run at %d shard(s): %v\n", s, err)
			continue
		}
		sc.Rows = append(sc.Rows, parprof.RowFrom(s, r.Makespan, r.Par, time.Since(start).Seconds()))
	}
	return sc
}

// checkShards validates the -shards flag, and the -ranks flag it is
// measured against, before the run starts. The engine re-validates (and
// also rejects mode combinations the flag cannot see, like incompatible
// fault plans), but catching the plain numeric mistakes here gives a
// flag-shaped message instead of a config error.
func checkShards(shards, ranks int) error {
	if ranks < 1 {
		return fmt.Errorf("-ranks must be >= 1, got %d", ranks)
	}
	if shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", shards)
	}
	if shards > ranks {
		return fmt.Errorf("-shards %d exceeds -ranks %d: each shard needs at least one rank", shards, ranks)
	}
	return nil
}
