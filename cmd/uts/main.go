// Command uts runs one simulated distributed UTS execution and prints a
// report in the style of the reference benchmark; it also analyzes the
// traces and compares the run manifests such runs write.
//
// Usage:
//
//	uts -tree H-SMALL -ranks 128 -placement 1/N -selector Tofu -steal half
//	uts -tree T3 -ranks 32 -trace t.jsonl -chrome t.json -manifest t.manifest.json
//	uts -in t.jsonl -blame -critical -lineage -lifestory
//	uts -diff a.manifest.json b.manifest.json
//	uts -count -tree all
//	uts -topology -ranks 512 -placement 8RR -thief 42
//
// -trace writes the activity trace with the protocol event log (steal
// round trips, token hops, quantum boundaries) as JSONL, -chrome the
// same run as Chrome trace-event JSON for ui.perfetto.dev, -manifest the
// run manifest (ledger JSON). A run that collects a trace (-trace,
// -chrome or -events) ends with its analysis — occupancy and SL/EL,
// work-discovery sessions (the idle spans between the trace's
// transitions), steal latency, traffic heatmap, termination tail, and on
// request blame, critical path, lineage and lifestory — which is what
// -in prints for a saved trace (repeatable; -chrome converts a single
// one). -diff attributes the makespan delta between two run manifests
// to critical-path segments, blame causes and links (DESIGN.md §12).
//
// Two modes inspect the inputs instead: -count enumerates -tree
// sequentially, the ground truth every traversal is checked against (to
// size a new tree, add it to internal/uts/presets.go and count it);
// -topology shows the job on the torus as seen from one -thief.
package main

import (
	"flag"
	"fmt"
	"io"
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
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/term"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: exit status 0 on success, 1 when the
// run fails or its report cannot be written, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	out := &obs.ErrWriter{W: stdout}
	code := runTo(args, out, stderr)
	if code == 0 && out.Err != nil {
		fmt.Fprintf(stderr, "uts: writing the report: %v\n", out.Err)
		return 1
	}
	return code
}

// runTo parses args and does the work, printing the report to stdout.
func runTo(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uts", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		treeFlag      = fs.String("tree", "H-SMALL", "tree preset (see -listtrees)")
		ranksFlag     = fs.Int("ranks", 64, "number of simulated MPI ranks")
		placeFlag     = fs.String("placement", "1/N", "rank placement: 1/N, 8RR or 8G")
		selFlag       = fs.String("selector", "RoundRobin", "victim selector (see -listselectors)")
		stealFlag     = fs.String("steal", "one", "steal amount: one|half")
		chunkFlag     = fs.Int("chunk", 4, "nodes per chunk (UTS default is 20; scaled experiments use 4)")
		nodeCostFlag  = fs.Duration("nodecost", 0, "virtual time per child generation (default 1µs)")
		seedFlag      = fs.Uint64("seed", 1, "random seed")
		detFlag       = fs.String("termination", "Safra", "termination detector: Safra|Ring")
		traceFlag     = fs.String("trace", "", "write the activity trace + event log (JSONL) to this file")
		chromeFlag    = fs.String("chrome", "", "write a Chrome trace-event JSON file (open in Perfetto); with -in, convert the one input")
		eventsFlag    = fs.Bool("events", false, "collect the protocol event log even without -trace/-chrome")
		eventBufFlag  = fs.Int("eventbuf", 0, "per-rank event ring capacity (0 = default)")
		manifestFlag  = fs.String("manifest", "", "write the run manifest (ledger JSON) to this file; compare runs with -diff")
		serveFlag     = fs.Bool("serve", false, "open-system serving mode: jobs arrive continuously instead of one closed batch (-arrivals, -tenants, -horizon); -tree sets the per-job workload")
		arrivalsFlag  = fs.String("arrivals", "poisson:2ms", "with -serve: comma-separated per-tenant arrival processes, cycled across tenants: poisson:MEAN, gamma:MEAN:SHAPE, weibull:MEAN:SHAPE — or a single replay:FILE (JSONL arrival log) feeding every tenant")
		tenantsFlag   = fs.Int("tenants", 2, "with -serve: number of traffic sources")
		horizonFlag   = fs.Duration("horizon", 50*time.Millisecond, "with -serve: arrival horizon (virtual time); the run drains admitted jobs past it")
		faultsFlag    = fs.String("faults", "", "JSON fault-plan file (crashes, stragglers, lossy links)")
		crashFlag     = fs.String("crash", "", "inline crash schedule: rank@time,... (e.g. 3@40us,11@2ms)")
		stragglerFlag = fs.String("straggler", "", "inline stragglers: rank@compute[xsend],... (e.g. 5@3x2)")
		countFlag     = fs.Bool("count", false, "enumerate -tree sequentially instead of simulating (-tree all: every preset below paper scale)")
		topoFlag      = fs.Bool("topology", false, "print the job's placement on the torus and -thief's distances and victim-selection profile instead of simulating")
		thiefFlag     = fs.Int("thief", 0, "with -topology: the rank whose view to print, in [0, ranks)")
		listTrees     = fs.Bool("listtrees", false, "list tree presets and exit")
		listSel       = fs.Bool("listselectors", false, "list victim selectors and exit")
		diffFlag      = fs.Bool("diff", false, "compare the two run manifests given as arguments (uts -diff A B) instead of simulating")
	)
	var ins []string
	fs.Func("in", "analyze this JSONL trace instead of simulating; repeatable", func(v string) error { ins = append(ins, v); return nil })
	// The report flags, the ones whose usage starts with "report:",
	// select the sections of a trace's analysis.
	var opts renderOpts
	fs.BoolVar(&opts.blame, "blame", false, "report: print the idle-time blame attribution table")
	fs.BoolVar(&opts.critical, "critical", false, "report: print the critical-path decomposition")
	fs.BoolVar(&opts.lineage, "lineage", false, "report: print the work-lineage (migration depth) summary")
	fs.BoolVar(&opts.life, "lifestory", false, "report: print per-rank activity bars")
	fs.IntVar(&opts.rows, "rows", 24, "report: max lifestory rows")
	fs.IntVar(&opts.width, "width", 72, "report: lifestory / curve width")
	fs.IntVar(&opts.steps, "steps", 10, "report: number of occupancy points for the SL/EL table")
	fs.IntVar(&opts.heat, "heatmap", 16, "report: traffic heatmap size in tiles (0 disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, format string, args ...any) int {
		fmt.Fprintf(stderr, format+"\n", args...)
		return code
	}
	// The flag package stops at the first non-flag: refuse, not drop,
	// the rest. Only -diff takes arguments, its two manifests.
	if fs.NArg() > 0 && !*diffFlag {
		return fail(2, "unexpected argument %q", fs.Arg(0))
	}

	// A flag that only a mode reads is refused without that mode, and
	// -in and -diff read no simulation flag.
	collects := !*countFlag && !*topoFlag && (*eventsFlag || *traceFlag != "" || *chromeFlag != "")
	var orphan string
	fs.Visit(func(f *flag.Flag) {
		report := strings.HasPrefix(f.Usage, "report:")
		switch {
		case orphan != "":
		case *diffFlag && f.Name != "diff":
			orphan = "-" + f.Name + " has no effect with -diff"
		case len(ins) > 0 && !*diffFlag && f.Name != "in" && f.Name != "chrome" && !report:
			orphan = "-" + f.Name + " has no effect with -in"
		case report && len(ins) == 0 && !collects:
			orphan = "-" + f.Name + " has no effect without a trace (-in, -trace, -chrome or -events)"
		case f.Name == "eventbuf" && !collects:
			orphan = "-eventbuf has no effect without -events, -trace or -chrome"
		case !*serveFlag && (f.Name == "arrivals" || f.Name == "tenants" || f.Name == "horizon"):
			orphan = "-" + f.Name + " has no effect without -serve"
		case !*topoFlag && f.Name == "thief":
			orphan = "-thief has no effect without -topology"
		}
	})
	if orphan != "" {
		return fail(2, "%s", orphan)
	}

	if *diffFlag {
		if fs.NArg() != 2 {
			return fail(2, "-diff compares exactly two run manifests; got %d", fs.NArg())
		}
		for _, path := range fs.Args() {
			if strings.HasSuffix(path, ".jsonl") {
				return fail(2, "-diff %s: a trace carries no configuration; compare the manifests -manifest writes", path)
			}
		}
		if err := diffManifests(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			return fail(1, "%v", err)
		}
		return 0
	}
	for _, f := range []struct {
		name     string
		val, min int
	}{{"steps", opts.steps, 1}, {"rows", opts.rows, 1}, {"width", opts.width, 1}, {"heatmap", opts.heat, 0}} {
		if f.val < f.min {
			return fail(2, "-%s must be >= %d, got %d", f.name, f.min, f.val)
		}
	}
	if len(ins) > 0 {
		for _, path := range ins {
			if !strings.HasSuffix(path, ".jsonl") {
				return fail(2, "-in %s: not a JSONL trace (compare run manifests with -diff)", path)
			}
		}
		if *chromeFlag != "" && len(ins) != 1 {
			return fail(2, "-chrome converts exactly one trace; got %d inputs", len(ins))
		}
		if err := analyzeTraces(stdout, stderr, ins, *chromeFlag, opts); err != nil {
			return fail(1, "%v", err)
		}
		return 0
	}

	if *listTrees {
		for _, n := range uts.PresetNames() {
			info := uts.MustPreset(n)
			fmt.Fprintf(stdout, "%-10s %-9v %s\n", n, info.Params.Type, info.Comment)
		}
		return 0
	}
	if *listSel {
		for _, n := range victim.StrategyNames() {
			fmt.Fprintln(stdout, n)
		}
		fmt.Fprintln(stdout, "Tofu^K (Tofu with weight 1/e^K for a number K >= 0)")
		return 0
	}

	if *countFlag && *topoFlag {
		return fail(2, "-count and -topology are separate modes")
	}
	info, ok := uts.Preset(*treeFlag)
	if !ok && !(*countFlag && *treeFlag == "all") {
		return fail(2, "unknown tree preset %q (-listtrees)", *treeFlag)
	}
	if *countFlag {
		return count(stdout, stderr, *treeFlag)
	}
	placement, err := topology.ParsePlacement(*placeFlag)
	if err != nil {
		return fail(2, "%v", err)
	}
	if *topoFlag {
		if *ranksFlag < 2 {
			return fail(2, "-ranks %d: need at least 2 ranks", *ranksFlag)
		}
		if *thiefFlag < 0 || *thiefFlag >= *ranksFlag {
			return fail(2, "-thief %d: outside [0, %d)", *thiefFlag, *ranksFlag)
		}
		job, err := topology.NewJob(topology.KComputer(), *ranksFlag, placement)
		if err != nil {
			return fail(1, "%v", err)
		}
		topologyReport(stdout, job, *thiefFlag, *seedFlag)
		return 0
	}

	if err := checkRanks(*ranksFlag); err != nil {
		return fail(2, "%v", err)
	}
	if *chunkFlag < 1 {
		return fail(2, "-chunk must be >= 1, got %d", *chunkFlag)
	}
	selector, err := victim.Lookup(*selFlag)
	if err != nil {
		return fail(2, "%v (-listselectors)", err)
	}
	var steal core.StealPolicy
	switch strings.ToLower(*stealFlag) {
	case "one":
		steal = core.StealOne
	case "half":
		steal = core.StealHalf
	default:
		return fail(2, "unknown steal policy %q (one|half)", *stealFlag)
	}
	detector, ok := term.Detectors[*detFlag]
	if !ok {
		return fail(2, "unknown termination detector %q (Safra|Ring)", *detFlag)
	}

	plan, err := buildFaultPlan(*faultsFlag, *crashFlag, *stragglerFlag, *seedFlag)
	if err != nil {
		return fail(2, "%v", err)
	}
	var serveSpec *serve.Spec
	if *serveFlag {
		serveSpec, err = buildServeSpec(*arrivalsFlag, *tenantsFlag, sim.Duration(*horizonFlag), info.Params)
		if err != nil {
			return fail(2, "%v", err)
		}
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
		CollectEvents: collects,
		EventBuffer:   *eventBufFlag,
		Faults:        plan,
		Serve:         serveSpec,
	}
	// A flag value the engine would refuse is a usage error too.
	if err := cfg.Validate(); err != nil {
		return fail(2, "%v", err)
	}
	res, err := core.Run(cfg)
	if err != nil {
		return fail(1, "%v", err)
	}

	fmt.Fprintf(stdout, "UTS distributed work-stealing simulation\n")
	fmt.Fprintf(stdout, "  tree:            %s (%v)\n", info.Name, info.Params.Type)
	fmt.Fprintf(stdout, "  ranks:           %d (%v placement)\n", res.Ranks, res.Placement)
	fmt.Fprintf(stdout, "  selector:        %s, steal %v, chunk %d\n", res.Selector, res.Steal, *chunkFlag)
	fmt.Fprintf(stdout, "  termination:     %s (%d rounds)\n", res.Detector, res.TerminationRounds)
	fmt.Fprintf(stdout, "\n")
	fmt.Fprintf(stdout, "  tree nodes:      %d (%d leaves, depth %d)\n", res.Nodes, res.Leaves, res.MaxDepth)
	fmt.Fprintf(stdout, "  wallclock:       %v (virtual)\n", res.Makespan)
	fmt.Fprintf(stdout, "  sequential time: %v (virtual)\n", res.SequentialTime)
	fmt.Fprintf(stdout, "  speedup:         %.2f\n", res.Speedup)
	fmt.Fprintf(stdout, "  efficiency:      %.3f\n", res.Efficiency)
	fmt.Fprintf(stdout, "\n")
	fmt.Fprintf(stdout, "  steal requests:  %d (%d ok, %d failed)\n", res.StealRequests, res.SuccessfulSteals, res.FailedSteals)
	fmt.Fprintf(stdout, "  chunks moved:    %d\n", res.ChunksTransferred)
	fmt.Fprintf(stdout, "  mean search:     %v per rank\n", res.MeanSearchTime)
	if res.MeanSessionDuration > 0 {
		fmt.Fprintf(stdout, "  mean session:    %v\n", res.MeanSessionDuration)
	}
	fmt.Fprintf(stdout, "  messages sent:   %d\n", res.Comm.TotalSent())
	if res.Premature {
		fmt.Fprintf(stdout, "  WARNING: premature termination detected (incomplete traversal)\n")
	}

	if res.MaxMigrationDepth > 0 {
		fmt.Fprintf(stdout, "  work lineage:    max migration depth %d\n", res.MaxMigrationDepth)
	}

	if res.Serve != nil {
		writeServe(stdout, res.Serve, sim.Duration(*horizonFlag))
	}

	if res.PerRankFaults != nil {
		fmt.Fprintf(stdout, "\n  fault injection:\n")
		fmt.Fprintf(stdout, "  crashed ranks:   %d\n", res.CrashedRanks)
		fmt.Fprintf(stdout, "  nodes generated: %d (%d completed, %d lost)\n",
			res.NodesGenerated, res.Nodes, res.LostNodes)
		fmt.Fprintf(stdout, "  lost messages:   %d (work in flight to/from dead ranks)\n", res.LostMessages)
		fmt.Fprintf(stdout, "  msgs dropped:    %d\n", res.Comm.TotalDropped())
		fmt.Fprintf(stdout, "  token regens:    %d\n", res.TokenRegens)
		if res.Recoveries > 0 {
			fmt.Fprintf(stdout, "  recoveries:      %d (mean latency %v)\n", res.Recoveries, res.MeanRecoveryLatency)
		}
		for _, f := range res.PerRankFaults {
			if !f.Crashed && f.LostNodes == 0 && f.Timeouts == 0 && f.Blacklists == 0 {
				continue
			}
			status := "survived"
			if f.Crashed {
				status = fmt.Sprintf("crashed @%v", sim.Duration(f.CrashedAt))
			}
			fmt.Fprintf(stdout, "    rank %4d: %-18s lost %d nodes, %d timeouts, %d blacklists\n",
				f.Rank, status, f.LostNodes, f.Timeouts, f.Blacklists)
		}
	}

	// Everything below that reads the trace reads it through one
	// analysis, so -chrome, -manifest and the report build one causal
	// graph.
	a := causal.Analyze(res.Trace)
	if *traceFlag != "" {
		if err := writeFile(*traceFlag, res.Trace.WriteJSONL); err != nil {
			return fail(1, "%v", err)
		}
		fmt.Fprintf(stdout, "  trace written:   %s (analyze with uts -in %s)\n", *traceFlag, *traceFlag)
	}
	if *chromeFlag != "" {
		if err := writeFile(*chromeFlag, func(w io.Writer) error { return obs.WriteChromeTraceOpts(w, res.Trace, chromeOptions(a)) }); err != nil {
			return fail(1, "%v", err)
		}
		fmt.Fprintf(stdout, "  chrome trace:    %s (load at ui.perfetto.dev)\n", *chromeFlag)
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
			return fail(1, "%v", err)
		}
		fmt.Fprintf(stdout, "\n  manifest:        %s (compare runs with uts -diff)\n", *manifestFlag)
	}

	// The trace's analysis closes the report, byte for byte what
	// uts -in prints for the trace the run wrote.
	if res.Trace != nil {
		fmt.Fprintln(stdout)
		if err := render(stdout, a, opts); err != nil {
			return fail(1, "%v", err)
		}
	}
	return 0
}

// countLimit bounds a -count enumeration: every preset below paper
// scale stays under it.
const countLimit = 500_000_000

// count enumerates one preset, or with "all" every preset below paper
// scale, one line each: the tree's shape, then the host's time and rate.
func count(stdout, stderr io.Writer, tree string) int {
	names := []string{tree}
	if tree == "all" {
		names = uts.PresetNames()
	}
	for _, name := range names {
		info := uts.MustPreset(name)
		if tree == "all" && info.PaperSize > 0 {
			fmt.Fprintf(stdout, "%-10s paper-scale tree (%d nodes per Table I), skipping\n", name, info.PaperSize)
			continue
		}
		start := time.Now()
		res, ok, err := uts.CountLimited(info.Params, countLimit)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		elapsed := time.Since(start)
		if !ok {
			fmt.Fprintf(stdout, "%-10s aborted after %d nodes (limit) in %v\n", name, res.Nodes, elapsed.Round(time.Millisecond))
			continue
		}
		fmt.Fprintf(stdout, "%-10s nodes=%d leaves=%d depth=%d (%v, %.2fM nodes/s)\n", name, res.Nodes, res.Leaves,
			res.MaxDepth, elapsed.Round(time.Millisecond), float64(res.Nodes)/elapsed.Seconds()/1e6)
	}
	return 0
}

// writeServe prints the serving report; lost jobs only when there are.
func writeServe(w io.Writer, st *serve.Stats, horizon sim.Duration) {
	fmt.Fprintf(w, "\n  open-system serving:\n")
	fmt.Fprintf(w, "  horizon:         %v (drained at %v)\n", horizon, sim.Duration(st.Finish))
	fmt.Fprintf(w, "  jobs:            %d arrived = %d admitted + %d rejected; %d done",
		st.Arrived, st.Admitted, st.Rejected, st.Done)
	if lost := st.Lost(); lost > 0 {
		fmt.Fprintf(w, " + %d lost", lost)
	}
	fmt.Fprintf(w, "\n  fairness (Jain): %.3f\n", st.Jain)
	for _, ts := range st.Tenants {
		class := ts.Class
		if class == "" {
			class = "best-effort"
		}
		fmt.Fprintf(w, "    %-8s %-12s arrived %4d  admitted %4d  rejected %4d  slo-met %4d  goodput %8.1f/s\n",
			ts.Name, class, ts.Arrived, ts.Admitted, ts.Rejected, ts.SLOMet, ts.GoodputPerSec)
		fmt.Fprintf(w, "    %-8s %-12s sojourn p50 %v  p95 %v  p99 %v\n",
			"", "", ts.SojournP50, ts.SojournP95, ts.SojournP99)
	}
}

// buildServeSpec assembles the open-system spec from the serving flags:
// tenants t0..tN-1 share the -tree preset as their per-job workload, and
// the -arrivals entries are cycled across them. A single replay entry
// instead feeds every tenant from one JSONL arrival log (the format
// serve.WriteArrivals emits).
func buildServeSpec(arrivals string, tenants int, horizon sim.Duration, tree uts.Params) (*serve.Spec, error) {
	if tenants < 1 || tenants > serve.MaxTenants {
		return nil, fmt.Errorf("-tenants must be in [1, %d], got %d", serve.MaxTenants, tenants)
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
// gamma:MEAN:SHAPE or weibull:MEAN:SHAPE (an omitted :SHAPE means 1),
// and refuses a process the sampler cannot draw from
// (serve.ArrivalSpec.Validate). An explicit SHAPE of zero is refused
// here: the spec reads a zero shape as the default.
func parseArrival(entry string) (serve.ArrivalSpec, error) {
	proc, rest, _ := strings.Cut(entry, ":")
	meanStr, shapeStr, hasShape := strings.Cut(rest, ":")
	mean, err := time.ParseDuration(meanStr)
	a := serve.ArrivalSpec{Process: strings.ToLower(proc), Mean: sim.Duration(mean)}
	if err == nil && hasShape {
		a.Shape, err = strconv.ParseFloat(shapeStr, 64)
	}
	switch {
	case err != nil, a.Process == serve.ProcPoisson && hasShape,
		a.Process != serve.ProcPoisson && a.Process != serve.ProcGamma && a.Process != serve.ProcWeibull:
		return serve.ArrivalSpec{}, fmt.Errorf(
			"-arrivals entry %q: want poisson:MEAN, gamma:MEAN:SHAPE, weibull:MEAN:SHAPE or replay:FILE", entry)
	}
	if hasShape && a.Shape == 0 {
		return serve.ArrivalSpec{}, fmt.Errorf("-arrivals entry %q: %s shape 0 (must be finite and >= 0.05)", entry, a.Process)
	}
	if err := a.Validate(); err != nil {
		return serve.ArrivalSpec{}, fmt.Errorf("-arrivals entry %q: %w", entry, err)
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

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}

// checkRanks validates the -ranks flag before anything is built, so a
// plain numeric mistake gets a flag-shaped message instead of a config
// error.
func checkRanks(ranks int) error {
	if ranks < 1 {
		return fmt.Errorf("-ranks must be >= 1, got %d", ranks)
	}
	return nil
}
