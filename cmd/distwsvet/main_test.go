package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distws/internal/analysis"
	"distws/internal/analysis/atomicmix"
	"distws/internal/analysis/detorder"
	"distws/internal/analysis/detrand"
	"distws/internal/analysis/lockcheck"
	"distws/internal/analysis/walltime"
)

// runJSON drives the real CLI entry point from the module root and
// decodes its -format json report.
func runJSON(t *testing.T, args ...string) (int, report, string) {
	t.Helper()
	if _, err := os.Stat("go.mod"); err != nil {
		t.Chdir("../..") // run() resolves packages and the allowlist from the module root
	}
	var stdout, stderr bytes.Buffer
	code := run(append(args, "-format", "json"), &stdout, &stderr)
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON output: %v\n%s", err, stdout.String())
	}
	return code, rep, stderr.String()
}

// TestFullSuiteClean is the gate the CI check job enforces: all eight
// analyzers over the whole module, clean under the checked-in
// allowlist, with every suppression accounted for.
func TestFullSuiteClean(t *testing.T) {
	code, rep, stderr := runJSON(t)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, stderr)
	}
	if len(rep.Findings) != 0 {
		t.Errorf("findings on a clean tree: %+v", rep.Findings)
	}
	if len(rep.Analyzers) != 8 {
		t.Errorf("ran %d analyzers (%v), want all 8", len(rep.Analyzers), rep.Analyzers)
	}
	if len(rep.Stale) != 0 {
		t.Errorf("stale allowlist entries: %+v", rep.Stale)
	}
	entries, err := loadAllowlist(defaultAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Suppressed) != len(entries) {
		t.Errorf("%d suppressions for %d allowlist entries", len(rep.Suppressed), len(entries))
	}
}

// TestAllowlistEntriesAreLoadBearing re-runs the suite with the
// allowlist disabled and checks the surfaced findings are exactly the
// suppressed set: every entry matches a real diagnostic (none is dead
// weight) and nothing else hides behind them.
func TestAllowlistEntriesAreLoadBearing(t *testing.T) {
	code, rep, _ := runJSON(t, "-allowlist", "")
	if code != 1 {
		t.Fatalf("exit %d without the allowlist, want 1 (its entries must be suppressing something)", code)
	}
	entries, err := loadAllowlist(filepath.Join("cmd", "distwsvet", "allowlist.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		matched := false
		for _, f := range rep.Findings {
			d := analysis.Diagnostic{Analyzer: f.Analyzer, Package: f.Package, Message: f.Message}
			if e.matches(d) {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("allowlist entry {%s %s %q} suppresses nothing; drop it", e.Analyzer, e.Path, e.Match)
		}
	}
	for _, f := range rep.Findings {
		d := analysis.Diagnostic{Analyzer: f.Analyzer, Package: f.Package, Message: f.Message}
		covered := false
		for _, e := range entries {
			if e.matches(d) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("finding not covered by any allowlist entry: %+v", f)
		}
	}
}

// TestStaleAllowlistEntryFailsFullSuite checks the self-cleaning rule:
// an entry no diagnostic matches fails the default full-suite run, but
// is tolerated on a -run subset (where going unmatched is expected).
func TestStaleAllowlistEntryFailsFullSuite(t *testing.T) {
	real, err := os.ReadFile("allowlist.json") // not yet chdir'd to the root
	if err != nil {
		t.Fatal(err)
	}
	var entries []*allowEntry
	if err := json.Unmarshal(real, &entries); err != nil {
		t.Fatal(err)
	}
	entries = append(entries, &allowEntry{
		Analyzer: "detrand",
		Path:     "distws/internal/sim",
		Match:    "never matches anything",
		Reason:   "deliberately stale, for the test",
	})
	data, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(t.TempDir(), "allowlist.json")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}

	code, rep, stderr := runJSON(t, "-allowlist", tmp)
	if code != 1 {
		t.Fatalf("exit %d with a stale allowlist entry, want 1\nstderr: %s", code, stderr)
	}
	if len(rep.Stale) != 1 || rep.Stale[0].Match != "never matches anything" {
		t.Errorf("stale entries %+v, want exactly the planted one", rep.Stale)
	}
	if !strings.Contains(stderr, "stale allowlist entry") {
		t.Errorf("stderr does not name the stale entry:\n%s", stderr)
	}

	code, rep, _ = runJSON(t, "-allowlist", tmp, "-run", "detorder")
	if code != 0 {
		t.Fatalf("exit %d on a -run subset with unmatched entries, want 0 (staleness only means something on the full suite)", code)
	}
	if len(rep.Stale) != 0 {
		t.Errorf("subset run reported stale entries: %+v", rep.Stale)
	}
}

// TestUnknownAnalyzerNameIsUsageError: a typo in -run must be a loud
// usage error naming the valid set, not a silently narrower run.
func TestUnknownAnalyzerNameIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-run", "poolchek"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d for unknown analyzer name, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown analyzer "poolchek"`) {
		t.Errorf("stderr does not name the bad analyzer:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "poolcheck") || !strings.Contains(stderr.String(), "handlesafe") {
		t.Errorf("stderr does not list the valid names:\n%s", stderr.String())
	}
}

// TestUnknownFormatIsUsageError: -format is validated before the load,
// so a bad value fails fast with exit 2.
func TestUnknownFormatIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format", "xml"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d for unknown format, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown format "xml"`) {
		t.Errorf("stderr does not name the bad format:\n%s", stderr.String())
	}
}

// TestBudgetExceededFails: the CI wall-time budget is enforced by the
// driver itself, so a pathological slowdown fails the check job rather
// than silently eating the pipeline.
func TestBudgetExceededFails(t *testing.T) {
	t.Chdir("../..")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-run", "detorder", "-budget", "1ns"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d with a 1ns budget, want 1", code)
	}
	if !strings.Contains(stderr.String(), "over the 1ns budget") {
		t.Errorf("stderr does not report the blown budget:\n%s", stderr.String())
	}
}

// bare returns the config-independent analyzers with every exception
// stripped, for the packages-must-pass-on-their-own-merits tests below.
// hotalloc and the ownership analyzers need module-specific roots that
// only resolve on a whole-module load, so they are exercised by
// TestFullSuiteClean instead.
func bare() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detrand.New(nil),
		walltime.New(virtualTime, nil),
		lockcheck.New(),
		atomicmix.New(),
		detorder.New(detPackages, barrierSyncPackages),
	}
}

// TestObsPackagesClean machine-checks the observability layer. internal/obs
// and internal/trace sit inside the virtual-time boundary — their events,
// counters and histograms must be pure functions of the simulated run —
// while internal/rt is the one allowlisted wall-clock reader. All three
// must come back clean under the production configuration.
func TestObsPackagesClean(t *testing.T) {
	pkgs, err := analysis.Load("../..",
		"distws/internal/obs", "distws/internal/trace", "distws/internal/rt")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("loaded %d packages, want 3", len(pkgs))
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{
		detrand.New(randExempt),
		walltime.New(virtualTime, wallClockOK),
		lockcheck.New(),
		atomicmix.New(),
		detorder.New(detPackages, barrierSyncPackages),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding: %v", d)
	}
}

// TestWalltimeAllowlistIsLoadBearing drops internal/rt from the
// wall-clock allowlist and expects findings: rt genuinely reads the
// host clock (that is its job), so the wallClockOK exception is doing
// work rather than papering over a rule nothing trips.
func TestWalltimeAllowlistIsLoadBearing(t *testing.T) {
	pkgs, err := analysis.Load("../..", "distws/internal/rt")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{walltime.New(virtualTime, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("internal/rt has no walltime findings without its allowlist entry; wallClockOK is stale")
	}
}

// TestParprofPackageCleanWithoutAllowlists machine-checks the
// parallel-kernel profiling layer (internal/obs/parprof) with every
// exception stripped. The window ledger is a determinism artifact —
// byte-identical across repeat runs — so the package must hold the
// virtual-time, randomness and iteration-order invariants on its own
// merits: not allowlisted, and clean under the bare analyzers. The
// wall-clock half lives in the parprof/wallclock subpackage precisely
// so this package never needs the exception.
func TestParprofPackageCleanWithoutAllowlists(t *testing.T) {
	const pkg = "distws/internal/obs/parprof"
	for _, e := range append(append([]string{}, randExempt...), wallClockOK...) {
		if pkg == e {
			t.Fatalf("%s is allowlisted (%v); the window ledger must pass unexcepted", pkg, e)
		}
	}
	pkgs, err := analysis.Load("../..", pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	diags, err := analysis.Run(pkgs, bare())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding: %v", d)
	}
}

// TestWallclockAllowlistIsLoadBearing strips the wall-clock probe's
// wallClockOK entry and expects walltime findings: parprof/wallclock
// genuinely reads the host clock (that is its job), so the scoped
// exception is doing work — and its scope is exactly one package, so
// the deterministic parprof ledger above never rides on it.
func TestWallclockAllowlistIsLoadBearing(t *testing.T) {
	pkgs, err := analysis.Load("../..", "distws/internal/obs/parprof/wallclock")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{walltime.New(virtualTime, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("parprof/wallclock has no walltime findings without its allowlist entry; the wallClockOK entry is stale")
	}
}

// TestRandExemptIsEmpty pins the v2 audit result: internal/rng's
// generators are hand-rolled (no math/rand anywhere in the module), so
// the detrand exemption list must stay empty until a package genuinely
// needs one.
func TestRandExemptIsEmpty(t *testing.T) {
	if len(randExempt) != 0 {
		t.Fatalf("randExempt = %v; nothing in the module imports math/rand, so every entry is stale", randExempt)
	}
}

// TestHotPathPackagesCleanWithoutAllowlists machine-checks the
// performance-engineered hot path (event arena, message pool, latency
// cache, batched hashing, victim tables) against the determinism analyzers with every
// exception stripped. Pooling and caching layers are where hidden
// nondeterminism likes to creep in (map-ordered free lists, wall-clock
// cache stamps), so these packages must hold the invariants on their
// own merits: first assert none of them appears in a production
// allowlist, then run the bare analyzers with no exceptions at all.
func TestHotPathPackagesCleanWithoutAllowlists(t *testing.T) {
	hot := []string{
		"distws/internal/sim",
		"distws/internal/comm",
		"distws/internal/topology",
		"distws/internal/uts",
		"distws/internal/workstack",
		"distws/internal/victim",
		"distws/internal/sample",
	}
	exempt := append(append([]string{}, randExempt...), wallClockOK...)
	for _, p := range hot {
		for _, e := range exempt {
			if p == e {
				t.Fatalf("hot-path package %s is allowlisted (%v); the pooled/cached code must pass unexcepted", p, e)
			}
		}
	}
	pkgs, err := analysis.Load("../..", hot...)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(hot) {
		t.Fatalf("loaded %d packages, want %d", len(pkgs), len(hot))
	}
	diags, err := analysis.Run(pkgs, bare())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		// The one detorder exception (uts.PresetNames) is carried by the
		// checked-in allowlist, which this test deliberately strips; skip
		// it here, TestAllowlistEntriesAreLoadBearing pins it exactly.
		if d.Analyzer == "detorder" && d.Package == "distws/internal/uts" {
			continue
		}
		t.Errorf("finding: %v", d)
	}
}

// TestCausalPackageCleanWithoutAllowlists machine-checks the causal
// analysis layer (internal/obs/causal) with every exception stripped.
// The package reconstructs cause-and-effect purely from a saved trace,
// so nothing in it may touch randomness or the host clock — if it did,
// blame reports and critical paths would stop being reproducible
// functions of the run. It is also one of detPackages, so detorder
// holds it to no map ranges, goroutines or selects. Assert it holds the
// invariants on its own merits: not allowlisted — in the analyzer
// configuration or by a per-diagnostic entry — and clean under the bare
// analyzers.
func TestCausalPackageCleanWithoutAllowlists(t *testing.T) {
	const pkg = "distws/internal/obs/causal"
	for _, e := range append(append([]string{}, randExempt...), wallClockOK...) {
		if pkg == e {
			t.Fatalf("%s is allowlisted (%v); the causal analyses must pass unexcepted", pkg, e)
		}
	}
	if !analysis.PathMatches(pkg, detPackages) {
		t.Fatalf("%s is not in detPackages; detorder would not check it", pkg)
	}
	entries, err := loadAllowlist("allowlist.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if analysis.PathMatches(pkg, []string{e.Path}) {
			t.Fatalf("%s has an allowlist entry (%s %q); the causal analyses must pass unexcepted", pkg, e.Analyzer, e.Match)
		}
	}
	pkgs, err := analysis.Load("../..", pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	diags, err := analysis.Run(pkgs, bare())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding: %v", d)
	}
}

// TestLedgerDiffPackagesCleanWithoutAllowlists machine-checks the
// cross-run observability layer (internal/obs/ledger and
// internal/obs/diff) with every exception stripped. Manifests are the
// committed baseline the matrix gate compares CI runs against, and
// diffs are golden-tested byte for byte — any randomness, wall-clock
// read, or map-iteration-ordered output in these packages would churn
// baselines and reports nondeterministically. They must pass the bare
// analyzers with no allowlist entry.
func TestLedgerDiffPackagesCleanWithoutAllowlists(t *testing.T) {
	pkgNames := []string{"distws/internal/obs/ledger", "distws/internal/obs/diff"}
	for _, pkg := range pkgNames {
		for _, e := range append(append([]string{}, randExempt...), wallClockOK...) {
			if pkg == e {
				t.Fatalf("%s is allowlisted (%v); the run ledger must pass unexcepted", pkg, e)
			}
		}
	}
	pkgs, err := analysis.Load("../..", pkgNames...)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	diags, err := analysis.Run(pkgs, bare())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding: %v", d)
	}
}

// TestFaultPackageCleanWithoutAllowlists machine-checks the fault
// subsystem (internal/fault) with every exception stripped. The whole
// point of the package is deterministic adversity: crash times come
// from the plan, drop/dup draws from the plan's own seeded stream. Any
// global randomness or wall-clock read would make fault schedules
// unreplayable, so the package must pass the bare analyzers with no
// allowlist entry.
func TestFaultPackageCleanWithoutAllowlists(t *testing.T) {
	const pkg = "distws/internal/fault"
	for _, e := range append(append([]string{}, randExempt...), wallClockOK...) {
		if pkg == e {
			t.Fatalf("%s is allowlisted (%v); fault injection must pass unexcepted", pkg, e)
		}
	}
	pkgs, err := analysis.Load("../..", pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	diags, err := analysis.Run(pkgs, bare())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding: %v", d)
	}
}

// TestShardedKernelCleanWithoutAllowlists machine-checks the parallel
// window coordinator (internal/sim/par): it sits inside the
// deterministic core yet runs real goroutines, so it must hold every
// invariant on its own merits — no randomness, no host clock, no lock
// hazards around the barrier, no map-ordered or select-raced control
// flow — with no allowlist entry anywhere. Its goroutines ride the
// barrierSyncPackages carve-out, whose load-bearing-ness the next test
// pins.
func TestShardedKernelCleanWithoutAllowlists(t *testing.T) {
	const pkg = "distws/internal/sim/par"
	entries, err := loadAllowlist(filepath.Join("..", "..", defaultAllowlist))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Path == pkg {
			t.Fatalf("%s is allowlisted (%q); the sharded kernel must pass unexcepted", pkg, e.Match)
		}
	}
	pkgs, err := analysis.Load("../..", pkg)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs, bare())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding: %v", d)
	}
}

// TestBarrierSyncCarveOutIsLoadBearing strips barrierSyncPackages and
// expects detorder to flag the sharded kernel's worker goroutines: the
// carve-out is doing real work, not suppressing a rule nothing trips,
// and it stays scoped to the go statement — the package must still be
// subject to every other detorder rule.
func TestBarrierSyncCarveOutIsLoadBearing(t *testing.T) {
	pkgs, err := analysis.Load("../..", "distws/internal/sim/par")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{detorder.New(detPackages, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("internal/sim/par has no detorder findings without the barrier-sync carve-out; barrierSyncPackages is stale")
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "goroutine") {
			t.Errorf("non-goroutine detorder finding in internal/sim/par: %v", d)
		}
	}
}

// TestServePackageCleanWithoutAllowlists machine-checks the open-system
// serving layer (internal/serve) with every exception stripped. The
// compiled arrival schedule is the serving determinism contract — a
// pure function of (spec, ranks, seed) — so the package must hold the
// virtual-time, randomness and iteration-order invariants on its own
// merits: not allowlisted, and clean under the bare analyzers.
func TestServePackageCleanWithoutAllowlists(t *testing.T) {
	const pkg = "distws/internal/serve"
	for _, e := range append(append([]string{}, randExempt...), wallClockOK...) {
		if pkg == e {
			t.Fatalf("%s is allowlisted (%v); the arrival compiler must pass unexcepted", pkg, e)
		}
	}
	pkgs, err := analysis.Load("../..", pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	diags, err := analysis.Run(pkgs, bare())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding: %v", d)
	}
}
