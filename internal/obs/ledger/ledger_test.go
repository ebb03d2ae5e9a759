package ledger

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"distws/internal/core"
	"distws/internal/fault"
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
// the run it describes — the trace it read exports the same bytes
// before and after the build, and the Result stays equal to a fresh run
// of the same configuration.
func TestManifestBuildIsObserverFree(t *testing.T) {
	cfg := testConfig()
	res := mustRun(t, cfg)

	var before bytes.Buffer
	if err := res.Trace.WriteJSONL(&before); err != nil {
		t.Fatal(err)
	}
	_ = FromRun("observer-check", testSpec(cfg), res)
	var after bytes.Buffer
	if err := res.Trace.WriteJSONL(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("building a manifest changed the trace")
	}

	res2 := mustRun(t, cfg)
	res.Trace, res2.Trace = nil, nil // traces compare above; DeepEqual on rings is slow
	if !reflect.DeepEqual(res, res2) {
		t.Error("building a manifest perturbed the Result (re-run differs)")
	}
}

// TestGoldenFig9ManifestObserverFree replicates core's golden Fig 9
// configuration (H-TINY, 128 ranks, Tofu, seed 9) and proves that
// emitting a run manifest leaves the trace, from which TestGoldenFig9
// renders its metrics page, byte-identical. This is
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
	}
	res := mustRun(t, cfg)

	var traceBefore bytes.Buffer
	if err := res.Trace.WriteJSONL(&traceBefore); err != nil {
		t.Fatal(err)
	}

	spec := SpecFromConfig("H-TINY", "", cfg)
	spec.Selector = "Tofu"
	m := FromRun("golden-fig9", spec, res)
	if err := m.Validate(); err != nil {
		t.Fatalf("golden manifest invalid: %v", err)
	}

	var traceAfter bytes.Buffer
	if err := res.Trace.WriteJSONL(&traceAfter); err != nil {
		t.Fatal(err)
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
// exactly.
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
}

// TestDecodeRejectsTrailingData: a manifest is one JSON value. Anything
// but whitespace after it — a second document, garbage from a botched
// concatenation — fails the decode, so ReadFile and every
// baseline comparison inherit the check. A section the schema no longer
// has (the parallel-kernel "par" block older manifests carried) fails
// the unknown-field check.
func TestDecodeRejectsTrailingData(t *testing.T) {
	cfg := testConfig()
	data, err := FromRun("trailing", testSpec(cfg), mustRun(t, cfg)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(bytes.Clone(data), " \n\t"...)); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
	for name, doc := range map[string][]byte{
		"garbage":   append(bytes.Clone(data), `{"schema":"junk"} trailing garbage`...),
		"second":    append(bytes.Clone(data), data...),
		"par block": bytes.Replace(data, []byte(`"schema":`), []byte(`"par": {"shards": 4}, "schema":`), 1),
	} {
		if _, err := Decode(doc); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// FuzzDecode feeds Decode raw bytes: it must never panic, and a
// manifest it accepts that also validates must survive Encode→Decode
// unchanged, so what ReadFile accepts is what a baseline holds.
func FuzzDecode(f *testing.F) {
	cfg := testConfig()
	cfg.Tree = uts.MustPreset("T3S").Params
	cfg.Ranks = 4
	res, err := core.Run(cfg)
	if err != nil {
		f.Fatal(err)
	}
	data, err := FromRun("fuzz", testSpec(cfg), res).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(append(bytes.Clone(data), `{"schema":"junk"} trailing garbage`...))
	f.Add([]byte(`{"schema":"distws/run-manifest/v1","spec":{"ranks":1}}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil || m.Validate() != nil {
			return
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("accepted manifest does not encode: %v", err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("encoded manifest does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("round trip changed the manifest:\n%+v\n%+v", m, back)
		}
	})
}
