// Command distwsvet runs the repository's custom static analyzers over
// the module and fails (exit 1) on any finding. It machine-checks the
// invariants the reproduction's validity rests on:
//
//	detrand     all randomness flows through internal/rng's seeded
//	            streams; no math/rand, no wall-clock seeds (the seed
//	            check follows the call graph through helpers)
//	walltime    virtual-time packages never read the host clock,
//	            directly or laundered through a helper package
//	lockcheck   critical sections release their mutex on every path and
//	            never send on a channel while holding it
//	handlesafe  sim.Event handles are not parked in globals or struct
//	            fields and are not used after Cancel
//	poolcheck   every comm.Message a handler drains is freed exactly
//	            once on every path (no leak, no double free, no use
//	            after free)
//	hotalloc    the 0-alloc bench-gated packages stay free of fmt
//	            calls, capturing closures, interface boxing and map
//	            ranges on paths reachable from the hot roots
//	detorder    deterministic packages avoid map iteration order,
//	            goroutines and multi-case selects
//
// Usage:
//
//	go run ./cmd/distwsvet [flags] [packages]
//
//	-run names        comma-separated analyzer subset (unknown names
//	                  are a usage error, exit 2)
//	-format text|json machine-readable findings with deterministic
//	                  ordering for CI artifacts
//	-allowlist file   diagnostic suppressions ("" disables); defaults
//	                  to the checked-in cmd/distwsvet/allowlist.json
//	-budget duration  fail if the whole run exceeds this wall time
//
// Packages default to ./... and follow go-tool patterns; run it from
// the module root (make distwsvet does). Analyzer-level configuration —
// which packages are virtual-time, hot, deterministic — lives in this
// file, in source, where review sees it change. Per-diagnostic
// exceptions live in allowlist.json with a reason each; an entry that
// no diagnostic matches fails the full-suite run, so the allowlist
// cannot accumulate dead weight.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"time"

	"distws/internal/analysis"
	"distws/internal/analysis/detorder"
	"distws/internal/analysis/detrand"
	"distws/internal/analysis/handlesafe"
	"distws/internal/analysis/hotalloc"
	"distws/internal/analysis/lockcheck"
	"distws/internal/analysis/poolcheck"
	"distws/internal/analysis/walltime"
)

// Analyzer-level configuration: the reviewed boundaries each invariant
// applies to.
var (
	// virtualTime packages must never read the host clock. That is all
	// of internal/, with no exception; it includes the observability
	// layer (internal/obs, internal/trace): its events, counters and
	// histograms are pure functions of the simulated run, timestamped in
	// virtual nanoseconds, so traced runs stay bit-identical across
	// hosts. Command-line tools live outside internal/ and may time
	// things.
	virtualTime = []string{"distws/internal"}

	// simPath defines the Event handle type handlesafe guards;
	// commPath defines the pooled Message poolcheck tracks.
	simPath  = "distws/internal/sim"
	commPath = "distws/internal/comm"

	// poolPackages are the mailbox-handler packages whose drains own
	// the messages they poll: the engine is the only one.
	poolPackages = []string{"distws/internal/core"}

	// hotPackages are the packages whose per-event code must not
	// allocate: hotalloc checks their functions when reachable from a
	// hot root.
	hotPackages = []string{
		"distws/internal/sim",
		"distws/internal/comm",
		"distws/internal/topology",
		"distws/internal/uts",
		"distws/internal/workstack",
		"distws/internal/fault",
		"distws/internal/victim",
		"distws/internal/sample",
		"distws/internal/term",
	}

	// hotRoots are the steady-state entry points of the per-event hot
	// path, named explicitly, package by package: the call-graph walk
	// stops at interface dispatch (the latency model, the fault
	// interposer, the victim selector), at function values (the delivery
	// hook) and at package boundaries (imports are type-checked from
	// export data, so a callee in another package has no body). Setup
	// code (constructors, preset tables) is deliberately absent: it may
	// allocate. The one exception is sample.Builder.Build, the
	// alias-table build behind a distance-skewed selector's first draw
	// in a run that misses its geometry's cached tables (once per
	// geometry): it is listed so the draw path is checked end to end,
	// and its one finding is carried by the allowlist.
	hotRoots = []string{
		"(*distws/internal/core.engine).startQuantum",
		"(*distws/internal/core.engine).expand",
		"(*distws/internal/core.engine).quantumEnd",
		"(*distws/internal/core.engine).deliver",
		"(*distws/internal/core.engine).getLoot",
		"(*distws/internal/core.engine).putLoot",
		"(*distws/internal/workstack.Stack).Push",
		"(*distws/internal/workstack.Stack).Pop",
		"(*distws/internal/workstack.Stack).StealInto",
		"(*distws/internal/workstack.Stack).Acquire",
		"(*distws/internal/victim.distanceSkewed).Next",
		"(*distws/internal/sample.Discrete).Sample",
		"(*distws/internal/sample.Discrete).At",
		"(*distws/internal/sample.Builder).Build",
		"(*distws/internal/topology.Job).DistanceSq",
		"(*distws/internal/sim.Kernel).Step",
		"(*distws/internal/sim.Kernel).advance",
		"(*distws/internal/sim.Kernel).farMin",
		"(*distws/internal/comm.Network).send",
		"(*distws/internal/fault.Injector).Outcome",
		"(*distws/internal/fault.Injector).ScaleCompute",
		"(*distws/internal/topology.HierarchicalLatency).Latency",
		"(*distws/internal/topology.JitterLatency).Latency",
		"(*distws/internal/topology.UniformLatency).Latency",
		"(*distws/internal/topology.cachedLatency).Latency",
		"(distws/internal/uts.Params).AppendChildren",
		"(*distws/internal/uts.ChildGen).Reset",
		"(*distws/internal/uts.ChildGen).Child",
		"(*distws/internal/term.ring).WorkSent",
		"(*distws/internal/term.ring).WorkReceived",
		"(*distws/internal/term.ring).OnIdle",
		"(*distws/internal/term.ring).OnToken",
		"(*distws/internal/term.ring).WorkLost",
	}

	// detPackages are the deterministic core: everything a golden
	// figure's bytes depend on, and the causal analyses behind the
	// golden reports, manifests and matrix baselines.
	detPackages = []string{
		"distws/internal/sim",
		"distws/internal/core",
		"distws/internal/comm",
		"distws/internal/uts",
		"distws/internal/term",
		"distws/internal/fault",
		"distws/internal/obs/causal",
	}

	// barrierSyncPackages may spawn goroutines despite being part of
	// the deterministic core: the sharded kernel's workers rendezvous
	// with the coordinator at every window barrier and all cross-shard
	// traffic is merged under a total key, so host scheduling never
	// reaches an output (the sharded golden and determinism-matrix
	// tests gate the claim). detorder keeps flagging map ranges and
	// multi-case selects here.
	barrierSyncPackages = []string{"distws/internal/sim/par"}
)

// defaultAllowlist is the checked-in suppression file, relative to the
// module root the tool is documented to run from.
const defaultAllowlist = "cmd/distwsvet/allowlist.json"

func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detrand.New(),
		walltime.New(virtualTime),
		lockcheck.New(),
		handlesafe.New(simPath),
		poolcheck.New(commPath, poolPackages),
		hotalloc.New(hotRoots, hotPackages),
		detorder.New(detPackages, barrierSyncPackages),
	}
}

// allowEntry is one reviewed per-diagnostic exception. A diagnostic is
// suppressed when the analyzer matches, the package is path or a
// subpackage of it, and the message matches the regexp.
type allowEntry struct {
	Analyzer string `json:"analyzer"`
	Path     string `json:"path"`
	Match    string `json:"match"`
	Reason   string `json:"reason"`

	re   *regexp.Regexp
	used bool
}

func (e *allowEntry) matches(d analysis.Diagnostic) bool {
	if e.Analyzer != d.Analyzer {
		return false
	}
	if !analysis.PathMatches(d.Package, []string{e.Path}) {
		return false
	}
	return e.re.MatchString(d.Message)
}

func loadAllowlist(path string) ([]*allowEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []*allowEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	for i, e := range entries {
		if e.Analyzer == "" || e.Path == "" || e.Match == "" || e.Reason == "" {
			return nil, fmt.Errorf("%s: entry %d: analyzer, path, match and reason are all required", path, i)
		}
		re, err := regexp.Compile(e.Match)
		if err != nil {
			return nil, fmt.Errorf("%s: entry %d: bad match regexp: %v", path, i, err)
		}
		e.re = re
	}
	return entries, nil
}

// jsonDiagnostic is the machine-readable shape of one finding. Field
// order and the pre-sorted diagnostics give byte-stable output.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	Package  string `json:"package"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
	Reason   string `json:"reason,omitempty"` // suppression reason, suppressed list only
}

func toJSON(d analysis.Diagnostic, reason string) jsonDiagnostic {
	return jsonDiagnostic{
		Analyzer: d.Analyzer,
		Package:  d.Package,
		File:     d.Pos.Filename,
		Line:     d.Pos.Line,
		Column:   d.Pos.Column,
		Message:  d.Message,
		Reason:   reason,
	}
}

// report is the top-level JSON document.
type report struct {
	Findings   []jsonDiagnostic `json:"findings"`
	Suppressed []jsonDiagnostic `json:"suppressed"`
	Stale      []allowEntry     `json:"stale_allowlist,omitempty"`
	Packages   int              `json:"packages"`
	Analyzers  []string         `json:"analyzers"`
	Elapsed    string           `json:"elapsed"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("distwsvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runFlag := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	format := fs.String("format", "text", "output format: text or json")
	allowPath := fs.String("allowlist", defaultAllowlist, "diagnostic allowlist file (\"\" disables)")
	budget := fs.Duration("budget", 0, "fail if the run exceeds this wall time (0 = none)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: distwsvet [-run names] [-format text|json] [-allowlist file] [-budget dur] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers() {
			fmt.Fprintf(stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "distwsvet: unknown format %q (valid: text, json)\n", *format)
		return 2
	}

	all := analyzers()
	selected := all
	if *runFlag != "" {
		byName := make(map[string]*analysis.Analyzer)
		var names []string
		for _, a := range all {
			byName[a.Name] = a
			names = append(names, a.Name)
		}
		selected = nil
		for _, name := range strings.Split(*runFlag, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "distwsvet: unknown analyzer %q (valid: %s)\n", name, strings.Join(names, ", "))
				return 2
			}
			selected = append(selected, a)
		}
	}

	var allow []*allowEntry
	if *allowPath != "" {
		entries, err := loadAllowlist(*allowPath)
		if err != nil {
			fmt.Fprintf(stderr, "distwsvet: allowlist: %v\n", err)
			return 2
		}
		allow = entries
	}

	patterns := fs.Args()
	// Stale allowlist entries only mean something when every analyzer
	// ran over the whole module: a partial run legitimately leaves
	// entries unmatched.
	fullSuite := *runFlag == "" &&
		(len(patterns) == 0 || (len(patterns) == 1 && patterns[0] == "./..."))
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "distwsvet: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(pkgs, selected)
	if err != nil {
		fmt.Fprintf(stderr, "distwsvet: %v\n", err)
		return 2
	}

	var findings, suppressed []analysis.Diagnostic
	var reasons []string
	for _, d := range diags {
		matched := false
		for _, e := range allow {
			if e.matches(d) {
				e.used = true
				if !matched {
					matched = true
					suppressed = append(suppressed, d)
					reasons = append(reasons, e.Reason)
				}
			}
		}
		if !matched {
			findings = append(findings, d)
		}
	}
	var stale []allowEntry
	if fullSuite {
		for _, e := range allow {
			if !e.used {
				stale = append(stale, *e)
			}
		}
	}
	elapsed := time.Since(start)

	var analyzerNames []string
	for _, a := range selected {
		analyzerNames = append(analyzerNames, a.Name)
	}
	switch *format {
	case "json":
		rep := report{
			Findings:   []jsonDiagnostic{},
			Suppressed: []jsonDiagnostic{},
			Stale:      stale,
			Packages:   len(pkgs),
			Analyzers:  analyzerNames,
			Elapsed:    elapsed.Round(time.Millisecond).String(),
		}
		for _, d := range findings {
			rep.Findings = append(rep.Findings, toJSON(d, ""))
		}
		for i, d := range suppressed {
			rep.Suppressed = append(rep.Suppressed, toJSON(d, reasons[i]))
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "distwsvet: %v\n", err)
			return 2
		}
	default:
		for _, d := range findings {
			fmt.Fprintln(stdout, d)
		}
	}

	code := 0
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "distwsvet: %d finding(s) across %d package(s)\n", len(findings), len(pkgs))
		code = 1
	}
	for _, e := range stale {
		fmt.Fprintf(stderr, "distwsvet: stale allowlist entry (nothing matches): analyzer=%s path=%s match=%q\n",
			e.Analyzer, e.Path, e.Match)
		code = 1
	}
	if *budget > 0 && elapsed > *budget {
		fmt.Fprintf(stderr, "distwsvet: run took %v, over the %v budget\n",
			elapsed.Round(time.Millisecond), *budget)
		code = 1
	}
	if code == 0 && *format == "text" {
		fmt.Fprintf(stdout, "distwsvet: %d package(s) clean (%d analyzer(s), %d suppression(s), %v)\n",
			len(pkgs), len(selected), len(suppressed), elapsed.Round(time.Millisecond))
	}
	return code
}
