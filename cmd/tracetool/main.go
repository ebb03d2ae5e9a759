// Command tracetool analyzes activity traces produced by cmd/uts (or
// the library's trace.WriteJSONL): it prints the occupancy summary, the
// paper's starting/ending latencies, work-discovery session statistics,
// and a lifestory chart. Traces that carry the protocol event log
// (uts -trace) additionally get steal-latency percentiles, a rank×rank
// traffic heatmap, a termination-tail breakdown, and — via the causal
// analyses — an idle-time blame table (-blame), the critical path
// (-critical), and the work-lineage summary (-lineage).
//
// Usage:
//
//	uts -tree H-SMALL -ranks 128 -trace t.jsonl
//	tracetool -in t.jsonl
//	tracetool -in t.jsonl -blame -critical -lineage
//	tracetool -in a.jsonl -in b.jsonl -format json
//	tracetool -in t.jsonl -lifestory -rows 32
//	tracetool -in t.jsonl -chrome t.json     # convert for ui.perfetto.dev
//	tracetool -diff -in a.manifest.json -in b.manifest.json
//	tracetool -diff -in a.jsonl -in b.jsonl -format json
//	tracetool -check t.jsonl t.chrome.json report.json run.manifest.json
//
// -diff compares two runs — ledger manifests written by `uts -manifest`
// or the matrix harness, or raw traces summarized on the fly — into a
// causal attribution report: which critical-path segments, blame causes
// and links the makespan delta decomposes into (DESIGN.md §12).
//
// -check validates artifacts so CI can gate on them: one OK/FAIL line
// per file, non-zero exit if any fails. A .jsonl file must parse as a
// trace and pass trace.Validate; a .json file must be a run manifest
// (ledger.Validate, including the causal partition identities), a
// Chrome trace with a non-empty traceEvents list, or a non-empty
// -format json report array. Any other JSON is a failure, not a pass.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"distws/internal/obs"
	"distws/internal/obs/causal"
	"distws/internal/obs/diff"
	"distws/internal/obs/ledger"
	"distws/internal/sim"
	"distws/internal/trace"
)

// inList collects repeated -in flags.
type inList []string

func (l *inList) String() string     { return fmt.Sprint([]string(*l)) }
func (l *inList) Set(v string) error { *l = append(*l, v); return nil }

// report is the machine-readable per-file analysis (-format json). All
// _ns fields are virtual nanoseconds. Every analysis the text mode can
// print appears here too, so scripted consumers never fall back to
// scraping the text.
type report struct {
	File          string             `json:"file"`
	Ranks         int                `json:"ranks"`
	MakespanNS    int64              `json:"makespan_ns"`
	Sessions      int                `json:"sessions"`
	MaxOccupancy  float64            `json:"max_occupancy"`
	MeanOccupancy float64            `json:"mean_occupancy"`
	SessionStats  *obs.SessionStats  `json:"session_stats,omitempty"`
	LatencyCurve  []obs.LatencyPoint `json:"latency_curve,omitempty"`
	Events        map[string]uint64  `json:"events,omitempty"`
	EventsDropped uint64             `json:"events_dropped,omitempty"`
	Steals        *stealReport       `json:"steals,omitempty"`
	Tail          *obs.TailStats     `json:"termination_tail,omitempty"`
	// Traffic, Blame, Critical and the embedded half of Steals are the
	// run manifest's own sections, filled by the ledger's conversion.
	Traffic  [][]uint64              `json:"traffic,omitempty"`
	Blame    *ledger.BlameSummary    `json:"blame,omitempty"`
	Critical *ledger.CriticalSummary `json:"critical_path,omitempty"`
	Lineage  *lineageReport          `json:"lineage,omitempty"`
}

// stealReport is the manifest's steal section plus the one statistic
// only the per-trace report carries.
type stealReport struct {
	ledger.StealSummary
	SuccessP50NS int64 `json:"success_p50_ns"`
}

type lineageReport struct {
	Transfers    int      `json:"transfers"`
	TokenHops    int      `json:"token_hops"`
	Quanta       int      `json:"quanta"`
	MaxDepth     int      `json:"max_depth"`
	Depths       []uint64 `json:"depths,omitempty"`
	DeepestRoute []int    `json:"deepest_route,omitempty"`
}

// renderOpts selects the sections of the text report.
type renderOpts struct {
	steps, heat, width, rows       int
	life, blame, critical, lineage bool
}

func main() {
	var (
		ins          inList
		formatFlag   = flag.String("format", "text", "output format: text|json")
		diffFlag     = flag.Bool("diff", false, "diff exactly two -in inputs (run manifests or raw traces) into an attribution report")
		parFlag      = flag.Bool("par", false, "print the parallel-kernel window profile of each -in run manifest")
		chromeFlag   = flag.String("chrome", "", "convert the (single) input to Chrome trace-event JSON at this path")
		lifeFlag     = flag.Bool("lifestory", false, "print per-rank activity bars")
		blameFlag    = flag.Bool("blame", false, "print the idle-time blame attribution table")
		criticalFlag = flag.Bool("critical", false, "print the critical-path decomposition")
		lineageFlag  = flag.Bool("lineage", false, "print the work-lineage (migration depth) summary")
		rowsFlag     = flag.Int("rows", 24, "max lifestory rows")
		widthFlag    = flag.Int("width", 72, "lifestory / curve width")
		stepsFlag    = flag.Int("steps", 10, "number of occupancy points for the SL/EL table")
		heatFlag     = flag.Int("heatmap", 16, "traffic heatmap size in tiles (0 disables)")
		checkFlag    = flag.Bool("check", false, "validate the files given as arguments (traces, run manifests, Chrome traces, -format json reports); one OK/FAIL line each")
	)
	flag.Var(&ins, "in", "trace file (JSONL) to analyze; repeatable")
	flag.Parse()

	if *checkFlag {
		runCheck(append(ins, flag.Args()...))
		return
	}
	if len(ins) == 0 {
		fmt.Fprintln(os.Stderr, "tracetool: at least one -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if *formatFlag != "text" && *formatFlag != "json" {
		fatalf("unknown -format %q (text|json)", *formatFlag)
	}
	if *chromeFlag != "" && len(ins) != 1 {
		fatalf("-chrome converts exactly one trace; got %d inputs", len(ins))
	}
	if *diffFlag {
		if len(ins) != 2 {
			fatalf("-diff compares exactly two inputs; got %d", len(ins))
		}
		runDiff(ins[0], ins[1], *formatFlag)
		return
	}
	if *parFlag {
		for i, path := range ins {
			if i > 0 {
				fmt.Println()
			}
			runPar(path)
		}
		return
	}

	opts := renderOpts{
		steps: *stepsFlag, heat: *heatFlag, width: *widthFlag, rows: *rowsFlag,
		life: *lifeFlag, blame: *blameFlag, critical: *criticalFlag, lineage: *lineageFlag,
	}
	var reports []report
	for _, path := range ins {
		a := causal.Analyze(load(path))
		if *chromeFlag != "" {
			writeChrome(*chromeFlag, a)
		}
		if *formatFlag == "json" {
			reports = append(reports, analyze(path, a))
			continue
		}
		if len(ins) > 1 {
			fmt.Printf("==> %s <==\n", path)
		}
		if err := render(os.Stdout, a, opts); err != nil {
			fatalf("%v", err)
		}
		if len(ins) > 1 {
			fmt.Println()
		}
	}
	if *formatFlag == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fatalf("%v", err)
		}
	}
}

// runDiff loads two inputs as run manifests — *.jsonl files are raw
// traces, summarized on the fly via ledger.FromTrace — and renders the
// causal attribution report between them.
func runDiff(pathA, pathB, format string) {
	a, b := loadManifest(pathA), loadManifest(pathB)
	d := diff.Compute(a, b)
	if err := d.CheckIdentities(); err != nil {
		fatalf("%v", err)
	}
	write := d.WriteText
	if format == "json" {
		write = d.WriteJSON
	}
	if err := write(os.Stdout); err != nil {
		fatalf("%v", err)
	}
}

// runPar prints one run manifest's parallel-kernel window profile
// (the `par` section written by `uts -parprof -manifest`).
func runPar(path string) {
	m, err := ledger.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	p := m.Par
	if p == nil {
		fmt.Printf("%s: no parallel-kernel profile (run with uts -parprof -manifest)\n", path)
		return
	}
	fmt.Printf("%s: parallel-kernel profile: %d shard(s), lookahead %v\n",
		m.ID, p.Shards, sim.Duration(p.LookaheadNS))
	if p.Windows == 0 {
		fmt.Printf("  no windows recorded (sequential kernel)\n")
		return
	}
	fmt.Printf("  windows:    %d (%d parallel, %d serialized = %.1f%%)\n",
		p.Windows, p.Windows-p.Serialized, p.Serialized,
		100*float64(p.Serialized)/float64(p.Windows))
	fmt.Printf("  staged:     %d message(s) merged at barriers (cross-shard + deferred same-shard)\n", p.Staged)
	for _, c := range p.Causes {
		fmt.Printf("    %-18s %6d window(s)  %12v\n",
			c.Cause, c.Windows, sim.Duration(c.VirtualNS))
	}
	if p.Traffic != nil {
		fmt.Printf("  shard traffic (staged messages, source-major):\n")
		for src, row := range p.Traffic {
			fmt.Printf("    shard %3d:", src)
			for _, n := range row {
				fmt.Printf(" %8d", n)
			}
			fmt.Println()
		}
	}
}

// loadManifest reads a ledger manifest, or summarizes a raw .jsonl
// trace into a partial one (causal sections and makespan only).
func loadManifest(path string) *ledger.Manifest {
	if strings.HasSuffix(path, ".jsonl") {
		id := strings.TrimSuffix(filepath.Base(path), ".jsonl")
		m := ledger.FromTrace(id, ledger.Spec{}, load(path))
		if err := m.Validate(); err != nil {
			fatalf("%s: %v", path, err)
		}
		return m
	}
	m, err := ledger.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	return m
}

func load(path string) *trace.Trace {
	tr, err := readTrace(path)
	if err != nil {
		fatalf("%v", err)
	}
	return tr
}

// readTrace parses one JSONL trace and holds it to trace.Validate.
func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("%s: trace fails validation: %w", path, err)
	}
	return tr, nil
}

// runCheck validates each file and exits non-zero if any fails.
func runCheck(paths []string) {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: tracetool -check file.jsonl|file.json ...")
		os.Exit(2)
	}
	failed := false
	for _, path := range paths {
		desc, err := check(path)
		if err != nil {
			fmt.Printf("FAIL %v\n", err)
			failed = true
			continue
		}
		fmt.Printf("OK   %s: %s\n", path, desc)
	}
	if failed {
		os.Exit(1)
	}
}

// check validates one artifact and describes it; every error names the
// file. A JSON document is accepted only as one of the three shapes
// this repository writes.
func check(path string) (string, error) {
	if strings.HasSuffix(path, ".jsonl") {
		tr, err := readTrace(path)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("trace, %d ranks, %d sessions, %d events (%d dropped)",
			tr.Ranks(), tr.TotalSessions(), tr.TotalEvents(), tr.TotalEventsDropped()), nil
	}
	if !strings.HasSuffix(path, ".json") {
		return "", fmt.Errorf("%s: unknown extension (want .jsonl or .json)", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if bytes.HasPrefix(bytes.TrimSpace(data), []byte("[")) {
		var reports []report
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&reports); err != nil {
			return "", fmt.Errorf("%s: not a tracetool report array: %w", path, err)
		}
		if len(reports) == 0 {
			return "", fmt.Errorf("%s: empty JSON report array", path)
		}
		for i, r := range reports {
			if r.Ranks <= 0 {
				return "", fmt.Errorf("%s: report entry %d has %d ranks", path, i, r.Ranks)
			}
		}
		return fmt.Sprintf("report array, %d entries", len(reports)), nil
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		return "", fmt.Errorf("%s: invalid JSON: %w", path, err)
	}
	if _, ok := doc["schema"]; ok {
		m, err := ledger.Decode(data)
		if err == nil {
			err = m.Validate()
		}
		if err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
		return fmt.Sprintf("run manifest %q, %d ranks, makespan %v", m.ID, m.Spec.Ranks, m.Makespan()), nil
	}
	if raw, ok := doc["traceEvents"]; ok {
		var events []json.RawMessage
		if err := json.Unmarshal(raw, &events); err != nil || len(events) == 0 {
			return "", fmt.Errorf("%s: chrome trace has no traceEvents", path)
		}
		return fmt.Sprintf("chrome trace, %d events", len(events)), nil
	}
	return "", fmt.Errorf("%s: JSON object is neither a run manifest (schema) nor a Chrome trace (traceEvents)", path)
}

func writeChrome(path string, a *causal.Analysis) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	if err := obs.WriteChromeTraceOpts(f, a.Trace(), chromeOptions(a)); err != nil {
		fatalf("writing %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		fatalf("closing %s: %v", path, err)
	}
	fmt.Fprintf(os.Stderr, "tracetool: chrome trace written to %s (load at ui.perfetto.dev)\n", path)
}

// chromeOptions hands the exporter what the analysis already holds: the
// steal pairs for the flow arrows and, for traces with an event log, the
// critical path as a highlight track.
func chromeOptions(a *causal.Analysis) obs.ChromeOptions {
	return obs.ChromeOptions{Highlight: a.Highlights(), Pairs: a.Pairs()}
}

// analyze builds the machine-readable report for one trace.
func analyze(path string, a *causal.Analysis) report {
	tr, curve := a.Trace(), a.Occupancy()
	r := report{
		File:          path,
		Ranks:         tr.Ranks(),
		MakespanNS:    int64(tr.End),
		Sessions:      tr.TotalSessions(),
		MaxOccupancy:  curve.MaxOccupancy(),
		MeanOccupancy: curve.MeanOccupancy(),
		LatencyCurve:  curve.LatencyCurve(obs.OccupancySamples(10, curve.MaxOccupancy())),
	}
	if ss := a.Sessions(); ss.Count > 0 {
		r.SessionStats = &ss
	}
	var m ledger.Manifest
	m.Attach(a)
	r.Blame, r.Critical, r.Traffic = m.Blame, m.Critical, m.Traffic
	if !a.HasEvents() {
		return r
	}
	r.Events = map[string]uint64{}
	for k, n := range tr.EventCounts() {
		if n > 0 {
			r.Events[trace.EventKind(k).String()] = n
		}
	}
	r.EventsDropped = tr.TotalEventsDropped()
	if m.Steals != nil {
		r.Steals = &stealReport{*m.Steals, int64(a.Steals().SuccessP50)}
	}
	tail := a.Tail()
	r.Tail = &tail
	g := a.Graph()
	r.Lineage = &lineageReport{
		Transfers:    len(g.Transfers),
		TokenHops:    len(g.TokenHops),
		Quanta:       g.QuantaCount(),
		MaxDepth:     g.MaxDepth(),
		Depths:       g.MigrationDepths(),
		DeepestRoute: g.DeepestRoute(),
	}
	return r
}

// render writes the human-readable analysis for one trace. Its output
// is a pure function of the trace and options — a golden test pins it
// byte for byte.
func render(w io.Writer, a *causal.Analysis, o renderOpts) error {
	tr, curve := a.Trace(), a.Occupancy()
	fmt.Fprintf(w, "trace: %d ranks, makespan %v, %d sessions\n",
		tr.Ranks(), sim.Duration(tr.End), tr.TotalSessions())
	fmt.Fprintf(w, "occupancy: max %.1f%% (Wmax %d), mean %.1f%%\n",
		curve.MaxOccupancy()*100, curve.Wmax(), curve.MeanOccupancy()*100)

	if st := a.Sessions(); st.Count > 0 {
		fmt.Fprintf(w, "work-discovery sessions: %d, mean %.3gs, p50 %.3gs, p99 %.3gs, %d failed attempts\n",
			st.Count, st.Mean, st.P50, st.P99, st.Failed)
	}

	fmt.Fprintf(w, "\noccupancy   SL (%% runtime)   EL (%% runtime)\n")
	for _, p := range curve.LatencyCurve(obs.OccupancySamples(o.steps, curve.MaxOccupancy())) {
		if !p.Reached {
			fmt.Fprintf(w, "   %3.0f%%        (never reached)\n", p.Occupancy*100)
			continue
		}
		fmt.Fprintf(w, "   %3.0f%%        %6.2f           %6.2f\n", p.Occupancy*100, p.SL*100, p.EL*100)
	}

	if a.HasEvents() {
		fmt.Fprintf(w, "\nprotocol events: %d recorded, %d dropped from bounded rings\n",
			tr.TotalEvents(), tr.TotalEventsDropped())
		for k, n := range tr.EventCounts() {
			if n > 0 {
				fmt.Fprintf(w, "  %-14s %d\n", trace.EventKind(k).String(), n)
			}
		}

		if sl := a.Steals(); sl.Count > 0 {
			fmt.Fprintf(w, "\nsteal round trips: %d (%d ok, %d refused, %d aborted), %d nodes moved\n",
				sl.Count, sl.Success, sl.Refused, sl.Aborted, sl.NodesMoved)
			fmt.Fprintf(w, "steal latency: mean %v, p50 %v, p95 %v, p99 %v, max %v (successful p50 %v)\n",
				sl.Mean, sl.P50, sl.P95, sl.P99, sl.Max, sl.SuccessP50)
		}

		if o.heat > 0 {
			fmt.Fprintln(w)
			fmt.Fprint(w, a.Heatmap(o.heat))
		}

		tail := a.Tail()
		fmt.Fprintf(w, "\ntermination tail: last work transfer at %v, tail %v (%.1f%% of makespan)\n",
			sim.Duration(tail.LastTransfer), tail.Duration, tail.Fraction*100)
		fmt.Fprintf(w, "  failed steals in tail: %d; token hops: %d in tail / %d total\n",
			tail.FailedInTail, tail.TokenHopsInTail, tail.TokenHopsTotal)
	}

	if o.blame {
		fmt.Fprintln(w)
		if err := causal.WriteBlameText(w, a.Blame()); err != nil {
			return err
		}
	}
	if o.critical {
		fmt.Fprintln(w)
		if err := causal.WriteCriticalText(w, a.Path()); err != nil {
			return err
		}
	}
	if o.lineage {
		fmt.Fprintln(w)
		if err := causal.WriteLineageText(w, a.Graph()); err != nil {
			return err
		}
	}

	if o.life {
		fmt.Fprintln(w)
		fmt.Fprint(w, obs.Lifestory(tr, o.width, o.rows))
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracetool: "+format+"\n", args...)
	os.Exit(1)
}
