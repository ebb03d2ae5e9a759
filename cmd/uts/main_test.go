package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distws/internal/core"
	"distws/internal/fault"
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/uts"
)

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
		"poisson:0s", "poisson:-2ms", "gamma:2ms:NaN", "gamma:2ms:Inf", "weibull:2ms:0.01", "gamma:2ms:-1"} {
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
// prints, so serve-smoke's ledger check reads the same line as before.
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
