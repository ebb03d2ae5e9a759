package ledger

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"distws/internal/core"
	"distws/internal/fault"
	"distws/internal/obs"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
)

// testConfig is a small traced run exercising every manifest section.
func testConfig() core.Config {
	return core.Config{
		Tree:          uts.MustPreset("T3").Params,
		Ranks:         16,
		Placement:     topology.OnePerNode,
		Selector:      victim.NewDistanceSkewed,
		Seed:          11,
		ChunkSize:     4,
		CollectTrace:  true,
		CollectEvents: true,
	}
}

func testSpec(cfg core.Config) Spec {
	s := SpecFromConfig("T3", "quick", cfg)
	s.Selector = "Tofu"
	return s
}

func mustRun(t *testing.T, cfg core.Config) *core.Result {
	t.Helper()
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestManifestDeterministic: the same seed and configuration must
// produce byte-identical manifest files, including section ordering —
// the property the committed baseline ledger depends on.
func TestManifestDeterministic(t *testing.T) {
	cfg := testConfig()
	var encs [2][]byte
	for i := range encs {
		m := FromRun("det-check", testSpec(cfg), mustRun(t, cfg))
		data, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		encs[i] = data
	}
	if !bytes.Equal(encs[0], encs[1]) {
		t.Fatalf("manifest encoding is not deterministic:\n--- first\n%s\n--- second\n%s", encs[0], encs[1])
	}
}

// TestManifestValidates: a manifest built from a real traced run passes
// the schema checker, and its causal sections hold the exact partition
// identities (critical segments sum to the makespan; every rank's blame
// sums to the makespan).
func TestManifestValidates(t *testing.T) {
	cfg := testConfig()
	m := FromRun("validate-check", testSpec(cfg), mustRun(t, cfg))
	if err := m.Validate(); err != nil {
		t.Fatalf("fresh manifest fails validation: %v", err)
	}
	if m.Critical == nil || m.Blame == nil || m.Steals == nil || m.Traffic == nil {
		t.Fatalf("traced run should fill every section: critical=%v blame=%v steals=%v traffic=%v",
			m.Critical != nil, m.Blame != nil, m.Steals != nil, m.Traffic != nil)
	}
	if got, want := m.Critical.TotalNS(), m.Result.MakespanNS; got != want {
		t.Errorf("critical segments sum to %d, want makespan %d", got, want)
	}
	for r, b := range m.Blame.PerRank {
		if b.TotalNS() != m.Result.MakespanNS {
			t.Errorf("rank %d blame sums to %d, want makespan %d", r, b.TotalNS(), m.Result.MakespanNS)
		}
	}
}

// TestValidateCatchesCorruption: the schema checker must reject broken
// identities and fingerprints, not just malformed JSON.
func TestValidateCatchesCorruption(t *testing.T) {
	cfg := testConfig()
	fresh := func() *Manifest { return FromRun("corrupt", testSpec(cfg), mustRun(t, cfg)) }

	m := fresh()
	m.Critical.ComputeNS += 7
	if err := m.Validate(); err == nil {
		t.Error("corrupted critical sum passed validation")
	}

	m = fresh()
	m.Fingerprint = "0000000000000000"
	if err := m.Validate(); err == nil {
		t.Error("corrupted fingerprint passed validation")
	}

	m = fresh()
	m.Blame.PerRank[3].SearchNS += 1
	if err := m.Validate(); err == nil {
		t.Error("corrupted rank blame passed validation")
	}

	m = fresh()
	m.Schema = "distws/run-manifest/v0"
	if err := m.Validate(); err == nil {
		t.Error("wrong schema version passed validation")
	}
}

// TestManifestBuildIsObserverFree: building a manifest must not perturb
// the run it describes — the Result it read stays equal to a fresh run
// of the same configuration, and an exported metrics registry dumps the
// same bytes before and after the build. This is the PR 2 standard that
// keeps TestGoldenFig9 byte-identical with ledger emission enabled.
func TestManifestBuildIsObserverFree(t *testing.T) {
	cfg := testConfig()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	res := mustRun(t, cfg)

	var before bytes.Buffer
	if err := reg.WritePrometheus(&before); err != nil {
		t.Fatal(err)
	}
	_ = FromRun("observer-check", testSpec(cfg), res)
	var after bytes.Buffer
	if err := reg.WritePrometheus(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("building a manifest changed the exported metrics")
	}

	cfg2 := testConfig()
	cfg2.Metrics = nil
	res2 := mustRun(t, cfg2)
	res.Trace, res2.Trace = nil, nil // traces compare elsewhere; DeepEqual on rings is slow
	if !reflect.DeepEqual(res, res2) {
		t.Error("building a manifest perturbed the Result (re-run differs)")
	}
}

// TestGoldenFig9ManifestObserverFree replicates core's golden Fig 9
// configuration (H-TINY, 128 ranks, Tofu, seed 9) and proves that
// emitting a run manifest leaves every output TestGoldenFig9 hashes
// byte-identical: the exported metrics registry and the trace. This is
// the "ledger emission enabled" clause of the PR 2 observer-effect
// standard — the golden test itself cannot import this package (core is
// below us in the import graph), so the assertion lives here.
func TestGoldenFig9ManifestObserverFree(t *testing.T) {
	if testing.Short() {
		t.Skip("128-rank golden run in -short mode")
	}
	cfg := core.Config{
		Tree:          uts.MustPreset("H-TINY").Params,
		Ranks:         128,
		Placement:     topology.OnePerNode,
		Selector:      victim.NewDistanceSkewed,
		Steal:         core.StealOne,
		Seed:          9,
		CollectTrace:  true,
		CollectEvents: true,
		Metrics:       obs.NewRegistry(),
	}
	res := mustRun(t, cfg)

	var metricsBefore, traceBefore bytes.Buffer
	if err := cfg.Metrics.WritePrometheus(&metricsBefore); err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.WriteJSONL(&traceBefore); err != nil {
		t.Fatal(err)
	}

	spec := SpecFromConfig("H-TINY", "", cfg)
	spec.Selector = "Tofu"
	m := FromRun("golden-fig9", spec, res)
	if err := m.Validate(); err != nil {
		t.Fatalf("golden manifest invalid: %v", err)
	}

	var metricsAfter, traceAfter bytes.Buffer
	if err := cfg.Metrics.WritePrometheus(&metricsAfter); err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.WriteJSONL(&traceAfter); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(metricsBefore.Bytes(), metricsAfter.Bytes()) {
		t.Error("manifest emission changed the golden run's exported metrics")
	}
	if !bytes.Equal(traceBefore.Bytes(), traceAfter.Bytes()) {
		t.Error("manifest emission changed the golden run's trace")
	}
}

// TestPlanHash pins the fault-plan commitment: nil and empty plans hash
// to "", identical plans hash identically, and any material change to
// the adversity changes the hash.
func TestPlanHash(t *testing.T) {
	if PlanHash(nil) != "" {
		t.Error("nil plan should hash to empty")
	}
	if PlanHash(&fault.Plan{Seed: 5}) != "" {
		t.Error("empty plan should hash to empty (it injects nothing)")
	}
	p := &fault.Plan{
		Seed:    7,
		Crashes: []fault.Crash{{Rank: 3, At: 1000}},
		Links:   []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Drop: 0.03}},
	}
	h1 := PlanHash(p)
	h2 := PlanHash(&fault.Plan{
		Seed:    7,
		Crashes: []fault.Crash{{Rank: 3, At: 1000}},
		Links:   []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Drop: 0.03}},
	})
	if h1 == "" || h1 != h2 {
		t.Errorf("identical plans hash differently: %q vs %q", h1, h2)
	}
	mutated := *p
	mutated.Crashes = []fault.Crash{{Rank: 3, At: 1001}}
	if PlanHash(&mutated) == h1 {
		t.Error("changing the crash time did not change the plan hash")
	}
}

// TestSpecFingerprint: equal specs agree, any field change disagrees.
func TestSpecFingerprint(t *testing.T) {
	a := testSpec(testConfig())
	b := testSpec(testConfig())
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal specs produced different fingerprints")
	}
	b.Selector = "Rand"
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different selectors produced the same fingerprint")
	}
}

// TestFileRoundTrip: WriteFile then ReadFile reproduces the manifest
// exactly, and ReadDir finds it under its canonical name.
func TestFileRoundTrip(t *testing.T) {
	cfg := testConfig()
	m := FromRun("round trip A", testSpec(cfg), mustRun(t, cfg))
	dir := t.TempDir()
	path := filepath.Join(dir, m.FileName())
	if m.FileName() != "round-trip-a.manifest.json" {
		t.Errorf("FileName = %q", m.FileName())
	}
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Error("read-back manifest differs from the written one")
	}
	all, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all["round trip A"] == nil {
		t.Errorf("ReadDir = %v, want the one manifest keyed by ID", all)
	}
}

// TestFromTrace: a manifest built from a saved trace alone carries the
// causal sections and the makespan, enough for tracetool -diff.
func TestFromTrace(t *testing.T) {
	cfg := testConfig()
	res := mustRun(t, cfg)
	m := FromTrace("trace-only", Spec{}, res.Trace)
	if m.Spec.Ranks != cfg.Ranks {
		t.Errorf("ranks %d, want %d inferred from the trace", m.Spec.Ranks, cfg.Ranks)
	}
	if m.Result.MakespanNS != int64(res.Makespan) {
		t.Errorf("makespan %d, want %d", m.Result.MakespanNS, int64(res.Makespan))
	}
	if m.Critical == nil || m.Blame == nil {
		t.Error("trace-built manifest is missing causal sections")
	}
	if got, want := m.Critical.TotalNS(), m.Result.MakespanNS; got != want {
		t.Errorf("critical segments sum to %d, want makespan %d", got, want)
	}
	if m.Makespan() != sim.Duration(res.Makespan) {
		t.Errorf("Makespan() = %v, want %v", m.Makespan(), res.Makespan)
	}
}

// TestFromTraceIsFromRun: a trace-only manifest is the manifest of a
// Result that has nothing but a makespan and that trace, byte for byte.
func TestFromTraceIsFromRun(t *testing.T) {
	res := mustRun(t, testConfig())
	spec := Spec{Ranks: res.Trace.Ranks()}
	a, err := FromTrace("t", Spec{}, res.Trace).Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromRun("t", spec, &core.Result{Makespan: sim.Duration(res.Trace.End), Trace: res.Trace}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("FromTrace and FromRun over a trace-only Result encode differently:\n%s\n---\n%s", a, b)
	}
}
