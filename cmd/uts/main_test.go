package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distws/internal/core"
	"distws/internal/fault"
	"distws/internal/obs/ledger"
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/trace"
	"distws/internal/uts"
)

// TestCLI runs the command in-process, one row per command line, and
// checks what a reader of the report and its artifacts would: the exit
// status, stderr (exactly; empty on success, with nothing on stdout on
// failure) and the report's lines. A replay row runs twice and wants
// byte-identical stdout — every byte of a report is a function of the
// flags, fault schedules and arrival processes included.
func TestCLI(t *testing.T) {
	inTempDir(t)
	runRows(t, []cliRow{
		// Every artifact of a traced run passes the checks uts -in and
		// uts -diff make when they read one.
		{name: "traced", args: "-tree H-TINY -ranks 32 -seed 3 -trace smoke.jsonl -chrome smoke.chrome.json -manifest smoke.manifest.json",
			check: func(t *testing.T, stdout string) {
				contains("trace written:   smoke.jsonl (analyze with uts -in smoke.jsonl)",
					"manifest:        smoke.manifest.json (compare runs with uts -diff)", "\ntermination tail:")(t, stdout)
				checkArtifacts(t, "smoke.jsonl", "smoke.chrome.json", "smoke.manifest.json")
			}},
		{name: "chaos", args: "-tree T3 -ranks 16 -seed 7 -crash 3@40us,11@90us -straggler 5@3x2", replay: true,
			check: func(t *testing.T, stdout string) {
				contains("crashed ranks:   2", "recoveries:")(t, stdout)
				if strings.Contains(stdout, "WARNING: premature") {
					t.Errorf("premature termination under faults:\n%s", stdout)
				}
			}},
		{name: "serving", args: "-tree T3 -ranks 16 -seed 7 -selector Tofu -serve -tenants 2 -arrivals poisson:2ms,gamma:4ms:2 -horizon 40ms", replay: true,
			check: checkJobsLedger},
		{name: "count", args: "-count -tree T3", check: contains("T3         nodes=2611 leaves=2305 depth=5 (")},
		{name: "count-unknown-tree", args: "-count -tree T9", code: 2, stderr: `unknown tree preset "T9" (-listtrees)`},
		{name: "topology", args: "-topology -ranks 2 -thief 1",
			check: contains("job: 2 ranks, 1/N placement", "from rank 1", "distance histogram:", "victim-selection mass")},
		{name: "topology-thief-past-job", args: "-topology -ranks 16 -thief 16", code: 2, stderr: "-thief 16: outside [0, 16)"},
		{name: "topology-negative-thief", args: "-topology -ranks 16 -thief -1", code: 2, stderr: "-thief -1: outside [0, 16)"},
		{name: "topology-one-rank", args: "-topology -ranks 1", code: 2, stderr: "-ranks 1: need at least 2 ranks"},
		{name: "topology-no-ranks", args: "-topology -ranks 0", code: 2, stderr: "-ranks 0: need at least 2 ranks"},
		{name: "topology-bad-placement", args: "-topology -placement 4X", code: 2, stderr: `unknown placement "4X" (1/N, 8RR, 8G)`},
		{name: "thief-without-topology", args: "-tree T3 -thief 3", code: 2, stderr: "-thief has no effect without -topology"},
		{name: "count-and-topology", args: "-count -topology", code: 2, stderr: "-count and -topology are separate modes"},
		// The flag package stops at the first non-flag: -ranks 16 used
		// to be dropped, and the run went ahead at 64 ranks.
		{name: "stray-argument", args: "-tree T3 bogus -ranks 16", code: 2, stderr: `unexpected argument "bogus"`},
		// -chunk 0 used to print "chunk 0" and run with the work stack's
		// default of 20; -eventbuf -3 to record into a default ring.
		{name: "zero-chunk", args: "-tree T3 -ranks 16 -chunk 0", code: 2, stderr: "-chunk must be >= 1, got 0"},
		// A value core.Config.Validate refuses is a usage error; these
		// used to exit 1 as failed runs.
		{name: "negative-eventbuf", args: "-tree T3 -ranks 16 -events -eventbuf -3", code: 2,
			stderr: "core: negative chunk size, poll interval or event buffer"},
		{name: "negative-nodecost", args: "-tree H-TINY -ranks 8 -nodecost -1ms", code: 2, stderr: "core: negative cost"},
		{name: "ranks-placement-cannot-divide", args: "-tree H-TINY -ranks 12 -placement 8G", code: 2,
			stderr: "topology: 12 ranks not divisible by 8 ranks/node (8G)"},
		{name: "ranks-past-machine", args: "-tree H-TINY -ranks 1000000", code: 2,
			stderr: "topology: allocation exceeds machine size: want 1000000 nodes, machine has 82944"},
		{name: "zero-horizon", args: "-tree T3 -ranks 8 -serve -horizon 0", code: 2, stderr: "serve: horizon 0s (must be positive)"},
		// An explicit shape of zero used to run with the default shape 1.
		{name: "gamma-shape-zero", args: "-tree T3 -serve -arrivals gamma:1ms:0", code: 2,
			stderr: `-arrivals entry "gamma:1ms:0": gamma shape 0 (must be finite and >= 0.05)`},
		{name: "run-steps-zero", args: "-tree T3 -ranks 8 -events -steps 0", code: 2, stderr: "-steps must be >= 1, got 0"},
		{name: "report-flag-without-trace", args: "-tree T3 -ranks 8 -blame", code: 2,
			stderr: "-blame has no effect without a trace (-in, -trace, -chrome or -events)"},
		{name: "report-flag-with-count", args: "-count -tree T3 -events -lineage", code: 2,
			stderr: "-lineage has no effect without a trace (-in, -trace, -chrome or -events)"},
	})
	// A report that cannot be written fails the run; it used to lose
	// the error and exit 0.
	t.Run("report-to-full-disk", func(t *testing.T) { checkFullDisk(t, "-tree H-TINY -ranks 8") })
}

// TestAnalyzeCLI holds the analysis modes to TestCLI's rows: -in prints
// the report of a saved trace, -diff compares two run manifests. They
// read two small runs that differ in the selector.
func TestAnalyzeCLI(t *testing.T) {
	inTempDir(t)
	for _, args := range []string{
		"-tree H-TINY -ranks 8 -seed 3 -trace a.jsonl -chrome a.chrome.json -manifest a.manifest.json",
		"-tree H-TINY -ranks 8 -seed 3 -selector Rand -trace b.jsonl -manifest b.manifest.json",
	} {
		if code, _, stderr := runCLI(args); code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", args, code, stderr)
		}
	}
	report := func(t *testing.T, args string) string {
		t.Helper()
		code, stdout, stderr := runCLI(args)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", args, code, stderr)
		}
		return stdout
	}
	runRows(t, []cliRow{
		{name: "analyze", args: "-in a.jsonl", check: contains("trace: 8 ranks, makespan ", "\nsteal round trips: ")},
		{name: "analyze-two", args: "-in a.jsonl -in b.jsonl", check: func(t *testing.T, stdout string) {
			if want := "==> a.jsonl <==\n" + report(t, "-in a.jsonl") + "\n==> b.jsonl <==\n" + report(t, "-in b.jsonl") + "\n"; stdout != want {
				t.Errorf("two inputs are not the framed reports of each:\n%s", stdout)
			}
		}},
		{name: "analyze-minimum-sections", args: "-in a.jsonl -heatmap 0 -steps 1 -rows 1 -width 1 -lifestory"},
		{name: "analyze-convert", args: "-in a.jsonl -chrome u.json", stderr: "chrome trace written to u.json (load at ui.perfetto.dev)",
			check: func(t *testing.T, stdout string) {
				if stdout != report(t, "-in a.jsonl") {
					t.Errorf("-chrome changed the report:\n%s", stdout)
				}
				// The trace read back converts to the file its run wrote.
				got, err := os.ReadFile("u.json")
				if err != nil {
					t.Fatal(err)
				}
				if want, err := os.ReadFile("a.chrome.json"); err != nil || !bytes.Equal(got, want) {
					t.Errorf("u.json differs from the run's a.chrome.json (%v)", err)
				}
			}},
		{name: "diff", args: "-diff a.manifest.json b.manifest.json", check: contains("run diff: A=a vs B=b\nspec: configs differ in 1 field(s)\n  selector: RoundRobin -> Rand\n")},
		{name: "analyze-chrome-two-inputs", args: "-in a.jsonl -in b.jsonl -chrome u.json", code: 2, stderr: "-chrome converts exactly one trace; got 2 inputs"},
		{name: "analyze-stray-argument", args: "-in a.jsonl stray -lifestory", code: 2, stderr: `unexpected argument "stray"`},
		// A manifest given to -in used to fail as a truncated trace.
		{name: "analyze-manifest", args: "-in a.manifest.json", code: 2, stderr: "-in a.manifest.json: not a JSONL trace (compare run manifests with -diff)"},
		{name: "analyze-missing", args: "-in absent.jsonl", code: 1, stderr: "open absent.jsonl: no such file or directory"},
		{name: "analyze-steps-zero", args: "-in a.jsonl -steps 0", code: 2, stderr: "-steps must be >= 1, got 0"},
		{name: "analyze-steps-negative", args: "-in a.jsonl -steps -3", code: 2, stderr: "-steps must be >= 1, got -3"},
		{name: "analyze-rows-zero", args: "-in a.jsonl -rows 0", code: 2, stderr: "-rows must be >= 1, got 0"},
		{name: "analyze-rows-negative", args: "-in a.jsonl -rows -1", code: 2, stderr: "-rows must be >= 1, got -1"},
		{name: "analyze-width-negative", args: "-in a.jsonl -width -100", code: 2, stderr: "-width must be >= 1, got -100"},
		{name: "analyze-heatmap-negative", args: "-in a.jsonl -heatmap -4", code: 2, stderr: "-heatmap must be >= 0, got -4"},
		{name: "analyze-simulation-flag", args: "-in a.jsonl -ranks 8", code: 2, stderr: "-ranks has no effect with -in"},
		// A trace carries no configuration: a raw-trace diff used to
		// report identical configurations for different selectors.
		{name: "diff-traces", args: "-diff a.jsonl b.jsonl", code: 2,
			stderr: "-diff a.jsonl: a trace carries no configuration; compare the manifests -manifest writes"},
		{name: "diff-one-manifest", args: "-diff a.manifest.json", code: 2, stderr: "-diff compares exactly two run manifests; got 1"},
		{name: "diff-with-in", args: "-in a.jsonl -diff a.manifest.json b.manifest.json", code: 2, stderr: "-in has no effect with -diff"},
		{name: "diff-report-flag", args: "-blame -diff a.manifest.json b.manifest.json", code: 2, stderr: "-blame has no effect with -diff"},
	})
	// A report that cannot be written fails the command.
	t.Run("report-to-full-disk", func(t *testing.T) {
		checkFullDisk(t, "-in a.jsonl", "-diff a.manifest.json b.manifest.json")
	})
}

// A cliRow is one command line of TestCLI or TestAnalyzeCLI.
type cliRow struct {
	name   string
	args   string
	code   int
	stderr string
	replay bool
	check  func(t *testing.T, stdout string)
}

func runRows(t *testing.T, rows []cliRow) {
	for _, c := range rows {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(c.args)
			if code != c.code {
				t.Fatalf("exit %d, want %d; stderr %q", code, c.code, stderr)
			}
			if want := c.stderr + "\n"; c.stderr == "" && stderr != "" || c.stderr != "" && stderr != want {
				t.Errorf("stderr %q, want %q", stderr, want)
			}
			if c.code != 0 && stdout != "" {
				t.Errorf("a failed command printed a report:\n%s", stdout)
			}
			if c.replay {
				if _, again, _ := runCLI(c.args); again != stdout {
					t.Errorf("replay differs:\n%s\n--- replay ---\n%s", stdout, again)
				}
			}
			if c.check != nil {
				c.check(t, stdout)
			}
		})
	}
}

// inTempDir runs the rest of the test in a scratch directory, so that
// artifacts are named as a shell there names them.
func inTempDir(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

func contains(want ...string) func(*testing.T, string) {
	return func(t *testing.T, stdout string) {
		for _, w := range want {
			if !strings.Contains(stdout, w) {
				t.Errorf("report lacks %q:\n%s", w, stdout)
			}
		}
	}
}

// checkFullDisk wants each command to fail with the write error when
// its report goes to a full disk.
func checkFullDisk(t *testing.T, args ...string) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full")
	}
	defer full.Close()
	for _, a := range args {
		var stderr bytes.Buffer
		if code := run(strings.Fields(a), full, &stderr); code != 1 || !strings.Contains(stderr.String(), "no space left on device") {
			t.Errorf("%s: exit %d, stderr %q; want exit 1 and the write error", a, code, stderr.String())
		}
	}
}

// TestRunReportIsInReport: the analysis a traced run ends with is, byte
// for byte, what uts -in prints for the trace the run wrote — the
// in-process and the offline report share one renderer and one trace.
func TestRunReportIsInReport(t *testing.T) {
	dir := t.TempDir()
	sections := " -blame -critical -lineage -lifestory"
	for _, c := range []struct{ name, args string }{
		{"fault-free", "-tree H-TINY -ranks 32 -seed 3"},
		{"faulted", "-tree T3 -ranks 16 -seed 7 -crash 3@40us,11@90us -straggler 5@3x2"},
		{"serving", "-tree T3 -ranks 16 -seed 7 -serve -tenants 2 -arrivals poisson:2ms -horizon 20ms"},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := filepath.Join(dir, c.name+".jsonl")
			code, ran, stderr := runCLI(c.args + " -trace " + tr + sections)
			if code != 0 {
				t.Fatalf("run: exit %d, stderr %q", code, stderr)
			}
			code, in, stderr := runCLI("-in " + tr + sections)
			if code != 0 {
				t.Fatalf("-in: exit %d, stderr %q", code, stderr)
			}
			if !strings.HasSuffix(ran, "\n\n"+in) {
				t.Errorf("the run's report does not end with uts -in's:\n%s\n--- uts -in ---\n%s", ran, in)
			}
		})
	}
}

func runCLI(args string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(strings.Fields(args), &out, &errOut)
	return code, out.String(), errOut.String()
}

// checkArtifacts holds a traced run's files to the library checks
// uts -in and -diff make when they read them, and the Chrome trace to
// a non-empty event list.
func checkArtifacts(t *testing.T, tracePath, chromePath, manifestPath string) {
	t.Helper()
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadJSONL(f)
	if err == nil {
		err = tr.Validate()
	}
	if err != nil {
		t.Errorf("%s: %v", tracePath, err)
	}

	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ledger.Decode(data)
	if err == nil {
		err = m.Validate()
	}
	if err != nil {
		t.Errorf("%s: %v", manifestPath, err)
	}

	if data, err = os.ReadFile(chromePath); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
		t.Errorf("%s: not a Chrome trace with events (%v)", chromePath, err)
	}
}

// checkJobsLedger reads the serving report's jobs line: every arrival is
// admitted or rejected, and every admitted job is done.
func checkJobsLedger(t *testing.T, stdout string) {
	for _, line := range strings.Split(stdout, "\n") {
		var arrived, admitted, rejected, done int
		if _, err := fmt.Sscanf(line, "  jobs: %d arrived = %d admitted + %d rejected; %d done",
			&arrived, &admitted, &rejected, &done); err != nil {
			continue
		}
		if arrived != admitted+rejected || done != admitted || arrived == 0 {
			t.Errorf("jobs ledger broken: %s", line)
		}
		return
	}
	t.Errorf("no jobs line in the report:\n%s", stdout)
}

func TestParseCrashSpec(t *testing.T) {
	got, err := parseCrashSpec("3@40us, 11@2ms")
	if err != nil {
		t.Fatal(err)
	}
	want := []fault.Crash{
		{Rank: 3, At: sim.Time(40 * sim.Microsecond)},
		{Rank: 11, At: sim.Time(2 * sim.Millisecond)},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("parseCrashSpec = %+v, want %+v", got, want)
	}
	for _, bad := range []string{"", "3", "3@", "@40us", "x@40us", "3@40", "3@-1ms", "-1@40us", "3@40us,,", "3@40us,3@2ms"} {
		if _, err := parseCrashSpec(bad); err == nil {
			t.Errorf("parseCrashSpec(%q) accepted", bad)
		}
	}
}

func TestParseStragglerSpec(t *testing.T) {
	got, err := parseStragglerSpec("5@3x2,7@1.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []fault.Straggler{
		{Rank: 5, Compute: 3, Send: 2},
		{Rank: 7, Compute: 1.5},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("parseStragglerSpec = %+v, want %+v", got, want)
	}
	for _, bad := range []string{"", "5", "5@", "5@0.5", "5@3x0.5", "5@x2", "a@3", "5@3xb", "5@NaN", "5@2e4", "5@3xNaN", "5@3xInf", "5@Inf"} {
		if _, err := parseStragglerSpec(bad); err == nil {
			t.Errorf("parseStragglerSpec(%q) accepted", bad)
		}
	}
}

func TestBuildFaultPlanConflicts(t *testing.T) {
	if _, err := buildFaultPlan("plan.json", "3@40us", "", 1); err == nil ||
		!strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("plan file + -crash accepted: %v", err)
	}
	if _, err := buildFaultPlan("plan.json", "", "5@3", 1); err == nil ||
		!strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("plan file + -straggler accepted: %v", err)
	}
}

func TestBuildFaultPlanInline(t *testing.T) {
	plan, err := buildFaultPlan("", "", "", 1)
	if err != nil || plan != nil {
		t.Fatalf("no flags should yield no plan, got %+v, %v", plan, err)
	}
	plan, err = buildFaultPlan("", "3@40us", "5@3", 42)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 42 || len(plan.Crashes) != 1 || len(plan.Stragglers) != 1 {
		t.Fatalf("inline plan wrong: %+v", plan)
	}
}

func TestBuildFaultPlanFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	data := `{"seed": 9, "crashes": [{"rank": 2, "at": 50000}]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	plan, err := buildFaultPlan(path, "", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 9 || len(plan.Crashes) != 1 || plan.Crashes[0].Rank != 2 {
		t.Fatalf("parsed plan wrong: %+v", plan)
	}
	if _, err := buildFaultPlan(filepath.Join(t.TempDir(), "missing.json"), "", "", 1); err == nil {
		t.Fatal("missing plan file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"unknown_field": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildFaultPlan(bad, "", "", 1); err == nil {
		t.Fatal("malformed plan file accepted")
	}
}

// TestCheckRanks: a bad -ranks is reported as a flag, before anything
// is built.
func TestCheckRanks(t *testing.T) {
	if err := checkRanks(8); err != nil {
		t.Fatalf("ranks=8: %v", err)
	}
	for _, ranks := range []int{0, -3} {
		if err := checkRanks(ranks); err == nil || !strings.Contains(err.Error(), "-ranks must be >= 1") {
			t.Errorf("checkRanks(%d) = %v, want the -ranks message", ranks, err)
		}
	}
}

func TestParseArrival(t *testing.T) {
	cases := map[string]serve.ArrivalSpec{
		"poisson:2ms":     {Process: serve.ProcPoisson, Mean: 2 * sim.Millisecond},
		"gamma:2ms:2":     {Process: serve.ProcGamma, Mean: 2 * sim.Millisecond, Shape: 2},
		"gamma:1ms":       {Process: serve.ProcGamma, Mean: sim.Millisecond},
		"weibull:2ms:1.5": {Process: serve.ProcWeibull, Mean: 2 * sim.Millisecond, Shape: 1.5},
		"Poisson:500us":   {Process: serve.ProcPoisson, Mean: 500 * sim.Microsecond},
	}
	for in, want := range cases {
		got, err := parseArrival(in)
		if err != nil {
			t.Errorf("parseArrival(%q): %v", in, err)
			continue
		}
		if got.Process != want.Process || got.Mean != want.Mean || got.Shape != want.Shape {
			t.Errorf("parseArrival(%q) = %+v, want %+v", in, got, want)
		}
	}
	for _, bad := range []string{"", "poisson", "poisson:", "poisson:2ms:3", "gamma:2ms:x", "gamma:2ms:2:9", "uniform:2ms", "poisson:nope",
		"poisson:0s", "poisson:-2ms", "gamma:2ms:NaN", "gamma:2ms:Inf", "weibull:2ms:0.01", "gamma:2ms:-1",
		"gamma:2ms:0", "gamma:2ms:-0", "weibull:2ms:0"} {
		if _, err := parseArrival(bad); err == nil {
			t.Errorf("parseArrival(%q) accepted", bad)
		}
	}
}

func TestBuildServeSpec(t *testing.T) {
	tree := uts.MustPreset("T3").Params
	spec, err := buildServeSpec("poisson:2ms,gamma:4ms:2", 3, 30*sim.Millisecond, tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("built spec invalid: %v", err)
	}
	if len(spec.Tenants) != 3 || spec.Horizon != 30*sim.Millisecond {
		t.Fatalf("spec shape: %d tenants, horizon %v", len(spec.Tenants), spec.Horizon)
	}
	// Entries cycle across tenants: t2 wraps back to the poisson entry.
	if spec.Tenants[0].Arrival.Process != serve.ProcPoisson ||
		spec.Tenants[1].Arrival.Process != serve.ProcGamma ||
		spec.Tenants[2].Arrival.Process != serve.ProcPoisson {
		t.Fatalf("arrival cycling wrong: %+v", spec.Tenants)
	}
	for i, tn := range spec.Tenants {
		if tn.Name != fmt.Sprintf("t%d", i) || tn.Work.Kind != serve.WorkUTS {
			t.Fatalf("tenant %d malformed: %+v", i, tn)
		}
	}

	if _, err := buildServeSpec("poisson:2ms", 0, 30*sim.Millisecond, tree); err == nil {
		t.Error("zero tenants accepted")
	}
	// A tenant count past the cap is refused before the tenants are
	// allocated: 10^8 of them used to exhaust memory here.
	if _, err := buildServeSpec("poisson:2ms", 100_000_000, 30*sim.Millisecond, tree); err == nil ||
		!strings.Contains(err.Error(), "-tenants") {
		t.Errorf("10^8 tenants: %v", err)
	}
	if spec, err := buildServeSpec("poisson:2ms", serve.MaxTenants, 30*sim.Millisecond, tree); err != nil || spec.Validate() != nil {
		t.Errorf("serve.MaxTenants tenants refused: %v", err)
	}
	if _, err := buildServeSpec("replay:/no/such/file.jsonl", 2, 30*sim.Millisecond, tree); err == nil {
		t.Error("missing replay file accepted")
	}

	// The replay path feeds each tenant its own trace from one log.
	path := filepath.Join(t.TempDir(), "arr.jsonl")
	if err := os.WriteFile(path, []byte(
		"{\"tenant\":0,\"at\":1000}\n{\"tenant\":1,\"at\":2000}\n{\"tenant\":0,\"at\":3000}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err = buildServeSpec("replay:"+path, 2, 30*sim.Millisecond, tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("replay spec invalid: %v", err)
	}
	if len(spec.Tenants[0].Arrival.Trace) != 2 || len(spec.Tenants[1].Arrival.Trace) != 1 {
		t.Fatalf("replay traces wrong: %+v", spec.Tenants)
	}
}

// TestServeUnderCrashes: `uts -serve -crash 3@5ms` runs, and its report
// counts the jobs the crash cost — a count the fault-free report never
// prints, so TestCLI's ledger check reads the same line as before.
func TestServeUnderCrashes(t *testing.T) {
	tree := uts.MustPreset("T3").Params
	spec, err := buildServeSpec("poisson:2ms", 2, 40*sim.Millisecond, tree)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := buildFaultPlan("", "3@5ms", "", 7)
	if err != nil {
		t.Fatal(err)
	}
	report := func(plan *fault.Plan) string {
		res, err := core.Run(core.Config{Tree: tree, Ranks: 16, Seed: 7, Serve: spec, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		writeServe(&b, res.Serve, spec.Horizon)
		return b.String()
	}
	if out := report(nil); strings.Contains(out, "lost") {
		t.Errorf("fault-free report mentions lost jobs:\n%s", out)
	}
	if out := report(plan); !strings.Contains(out, " lost\n") {
		t.Errorf("report of a crashed serving run counts no lost jobs:\n%s", out)
	}
}

// The flag grammars are fuzzed against their downstream validators:
// whatever a parser accepts must pass the check the run applies later,
// so a bad flag is refused with a flag-shaped message, never by the
// engine.

// FuzzParseCrashSpec: an accepted -crash schedule is a valid fault plan
// on the smallest rank count that holds its ranks and a survivor.
func FuzzParseCrashSpec(f *testing.F) {
	for _, s := range []string{"3@40us", "3@40us, 11@2ms", "3@40us,3@2ms", "0@1ns", "3@-1ms", "x@1ms"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		crashes, err := parseCrashSpec(spec)
		if err != nil {
			return
		}
		maxRank := 0
		for _, c := range crashes {
			maxRank = max(maxRank, c.Rank)
		}
		if maxRank > math.MaxInt-2 {
			return // no rank count holds this rank and a survivor
		}
		if err := (&fault.Plan{Crashes: crashes}).Validate(maxRank + 2); err != nil {
			t.Fatalf("parseCrashSpec(%q) accepted a plan Validate refuses: %v", spec, err)
		}
	})
}

// FuzzParseStragglerSpec: an accepted -straggler list is a valid fault
// plan on the smallest rank count that holds its ranks.
func FuzzParseStragglerSpec(f *testing.F) {
	for _, s := range []string{"5@3", "5@3x2,7@1.5", "5@NaN", "5@2e4", "5@1x10000", "5@0x1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		stragglers, err := parseStragglerSpec(spec)
		if err != nil {
			return
		}
		maxRank := 0
		for _, s := range stragglers {
			maxRank = max(maxRank, s.Rank)
		}
		if maxRank == math.MaxInt {
			return // no rank count holds this rank
		}
		if err := (&fault.Plan{Stragglers: stragglers}).Validate(maxRank + 1); err != nil {
			t.Fatalf("parseStragglerSpec(%q) accepted a plan Validate refuses: %v", spec, err)
		}
	})
}

// FuzzParseArrival: an accepted -arrivals entry makes a tenant the
// serving spec's validation accepts.
func FuzzParseArrival(f *testing.F) {
	for _, s := range []string{"poisson:2ms", "gamma:2ms:2", "weibull:2ms:1.5", "gamma:2ms:NaN", "poisson:0s", "gamma:1ms:0.01"} {
		f.Add(s)
	}
	tree := uts.MustPreset("T3").Params
	f.Fuzz(func(t *testing.T, entry string) {
		a, err := parseArrival(entry)
		if err != nil {
			return
		}
		spec := &serve.Spec{Horizon: sim.Millisecond, Tenants: []serve.Tenant{
			{Name: "t0", Arrival: a, Work: serve.Workload{Kind: serve.WorkUTS, Tree: tree}},
		}}
		if err := spec.Validate(); err != nil {
			t.Fatalf("parseArrival(%q) = %+v, which Validate refuses: %v", entry, a, err)
		}
	})
}
