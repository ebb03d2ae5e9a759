package main

import (
	"fmt"
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
	for _, bad := range []string{"", "3", "3@", "@40us", "x@40us", "3@40", "3@-1ms", "-1@40us", "3@40us,,"} {
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
	for _, bad := range []string{"", "5", "5@", "5@0.5", "5@3x0.5", "5@x2", "a@3", "5@3xb"} {
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

// TestCheckShards covers the -shards flag validation, and pins that
// the combinations the flag cannot pre-check (a sharded run with a
// fault plan needing the send-path interposer) are still rejected by
// the engine the flag hands off to.
func TestCheckShards(t *testing.T) {
	if err := checkShards(1, 8); err != nil {
		t.Fatalf("shards=1: %v", err)
	}
	if err := checkShards(8, 8); err != nil {
		t.Fatalf("shards=ranks: %v", err)
	}
	for _, tc := range []struct{ shards, ranks int }{{0, 8}, {-2, 8}, {9, 8}} {
		if err := checkShards(tc.shards, tc.ranks); err == nil {
			t.Errorf("checkShards(%d, %d) accepted", tc.shards, tc.ranks)
		}
	}
	// A bad -ranks is reported as such, not as a -shards excess.
	for _, ranks := range []int{0, -3} {
		if err := checkShards(1, ranks); err == nil || !strings.Contains(err.Error(), "-ranks must be >= 1") {
			t.Errorf("checkShards(1, %d) = %v, want the -ranks message", ranks, err)
		}
	}
	cfg := core.Config{
		Tree:   uts.MustPreset("T3S").Params,
		Ranks:  8,
		Shards: 2,
		Faults: &fault.Plan{Links: []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Drop: 0.1}}},
	}
	if _, err := core.Run(cfg); err == nil || !strings.Contains(err.Error(), "interposer") {
		t.Fatalf("sharded run with link faults accepted: %v", err)
	}
}

// TestShardedRunMatchesSequential drives the same small run through
// the flag path's config at shards 1 and 4: the scalar results the
// command prints must be identical.
func TestShardedRunMatchesSequential(t *testing.T) {
	base := core.Config{
		Tree:  uts.MustPreset("T3S").Params,
		Ranks: 16,
		Seed:  1,
	}
	seq, err := core.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Shards = 4
	res, err := core.Run(par)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != seq.Makespan || res.Nodes != seq.Nodes ||
		res.StealRequests != seq.StealRequests || res.ChunksTransferred != seq.ChunksTransferred {
		t.Fatalf("shards=4 diverged: makespan %v vs %v, steals %d vs %d",
			res.Makespan, seq.Makespan, res.StealRequests, seq.StealRequests)
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
	for _, bad := range []string{"", "poisson", "poisson:", "poisson:2ms:3", "gamma:2ms:x", "gamma:2ms:2:9", "uniform:2ms", "poisson:nope"} {
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
