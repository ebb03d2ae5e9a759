package diff

import (
	"bytes"
	"strings"
	"testing"

	"distws/internal/core"
	"distws/internal/obs/ledger"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
)

// runManifest executes one small traced run and builds its manifest.
func runManifest(t *testing.T, id, selName string, sel victim.Factory, seed uint64) *ledger.Manifest {
	t.Helper()
	cfg := core.Config{
		Tree:          uts.MustPreset("T3").Params,
		Ranks:         16,
		Placement:     topology.OnePerNode,
		Selector:      sel,
		Seed:          seed,
		ChunkSize:     4,
		CollectTrace:  true,
		CollectEvents: true,
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := ledger.SpecFromConfig("T3", "", cfg)
	spec.Selector = selName
	m := ledger.FromRun(id, spec, res)
	if err := m.Validate(); err != nil {
		t.Fatalf("manifest %s invalid: %v", id, err)
	}
	return m
}

// TestSelfDiffIsZero: the diff of a run against itself must be exactly
// zero everywhere — makespan, every critical segment, every blame
// cause, every steal counter, every link.
func TestSelfDiffIsZero(t *testing.T) {
	a := runManifest(t, "self", "Tofu", victim.NewDistanceSkewed, 5)
	b := runManifest(t, "self", "Tofu", victim.NewDistanceSkewed, 5)
	d := Compute(a, b)
	if err := d.CheckIdentities(); err != nil {
		t.Fatal(err)
	}
	if !d.Zero() {
		var buf bytes.Buffer
		d.WriteText(&buf)
		t.Fatalf("self-diff is not zero:\n%s", buf.String())
	}
	if !d.SameSpec || len(d.SpecChanges) != 0 {
		t.Errorf("self-diff reports spec changes: same=%v changes=%v", d.SameSpec, d.SpecChanges)
	}
	if d.Steals == nil || d.Blame == nil || d.Critical == nil || !d.Traffic {
		t.Error("self-diff dropped sections present in both manifests")
	}
}

// TestDiffIdentities: two runs that differ only in victim selector must
// produce per-segment critical deltas summing exactly to the makespan
// delta and per-cause blame deltas summing exactly to ranks × makespan
// delta — the acceptance identity of the diff engine.
func TestDiffIdentities(t *testing.T) {
	a := runManifest(t, "tofu", "Tofu", victim.NewDistanceSkewed, 5)
	b := runManifest(t, "rand", "Rand", victim.NewUniformRandom, 5)
	d := Compute(a, b)
	if err := d.CheckIdentities(); err != nil {
		t.Fatal(err)
	}
	if d.Critical == nil || d.Blame == nil {
		t.Fatal("diff of two traced runs is missing causal sections")
	}
	if got, want := d.Critical.Sum(), d.Makespan.Delta; got != want {
		t.Errorf("critical deltas sum to %d, want makespan delta %d", got, want)
	}
	if got, want := d.Blame.Sum(), int64(16)*d.Makespan.Delta; got != want {
		t.Errorf("blame deltas sum to %d, want 16×makespan delta %d", got, want)
	}
	if len(d.SpecChanges) != 1 || !strings.HasPrefix(d.SpecChanges[0], "selector:") {
		t.Errorf("spec changes = %v, want exactly the selector", d.SpecChanges)
	}
	if d.SameSpec {
		t.Error("different selectors reported as same spec")
	}

	// A serving spec is part of the fingerprint, so a change to it alone
	// must be named too.
	served := *a
	served.Spec.ServeHash = "5e7ed"
	if got := Compute(a, &served).SpecChanges; len(got) != 1 || got[0] != "serve_hash:  -> 5e7ed" {
		t.Errorf("spec changes = %q, want exactly the serve_hash", got)
	}
}

// TestReportByteStable: independently recomputed diffs of the same two
// configurations render byte-identical text.
func TestReportByteStable(t *testing.T) {
	render := func() string {
		a := runManifest(t, "tofu", "Tofu", victim.NewDistanceSkewed, 5)
		b := runManifest(t, "rand", "Rand", victim.NewUniformRandom, 5)
		var txt bytes.Buffer
		if err := Compute(a, b).WriteText(&txt); err != nil {
			t.Fatal(err)
		}
		return txt.String()
	}
	t1, t2 := render(), render()
	if t1 != t2 {
		t.Errorf("text report is not byte-stable:\n--- first\n%s\n--- second\n%s", t1, t2)
	}
	for _, want := range []string{"run diff:", "critical path", "idle-time blame", "steals:", "selector: Tofu -> Rand"} {
		if !strings.Contains(t1, want) {
			t.Errorf("text report missing %q:\n%s", want, t1)
		}
	}
	if !strings.Contains(t1, "slower") && !strings.Contains(t1, "faster") &&
		!strings.Contains(t1, "makespan-identical") {
		t.Errorf("headline missing from report:\n%s", t1)
	}
}

// TestHeadlineDirections pins the headline phrasing for both signs.
func TestHeadlineDirections(t *testing.T) {
	mk := func(a, b int64) *Delta {
		return Compute(
			&ledger.Manifest{Spec: ledger.Spec{Ranks: 1}, Result: ledger.ResultSummary{MakespanNS: a}},
			&ledger.Manifest{Spec: ledger.Spec{Ranks: 1}, Result: ledger.ResultSummary{MakespanNS: b}},
		)
	}
	if h := mk(1000, 1120).Headline(); !strings.Contains(h, "12.0% slower") {
		t.Errorf("slower headline = %q", h)
	}
	if h := mk(1000, 900).Headline(); !strings.Contains(h, "10.0% faster") {
		t.Errorf("faster headline = %q", h)
	}
	if h := mk(1000, 1000).Headline(); !strings.Contains(h, "makespan-identical") {
		t.Errorf("identical headline = %q", h)
	}
}
