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

// parManifest runs the T3 grid cell sharded and profiled, so the
// manifest carries a par section to diff.
func parManifest(t *testing.T, id string, seed uint64) *ledger.Manifest {
	t.Helper()
	cfg := core.Config{
		Tree:          uts.MustPreset("T3").Params,
		Ranks:         16,
		Placement:     topology.OnePerNode,
		Selector:      victim.NewDistanceSkewed,
		Seed:          seed,
		ChunkSize:     4,
		Shards:        4,
		ParProfile:    true,
		CollectTrace:  true,
		CollectEvents: true,
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := ledger.SpecFromConfig("T3", "", cfg)
	spec.Selector = "Tofu"
	m := ledger.FromRun(id, spec, res)
	if err := m.Validate(); err != nil {
		t.Fatalf("manifest %s invalid: %v", id, err)
	}
	return m
}

// TestParDiffSelfZero: the par delta of a run against itself is zero
// in every scalar and cause row, and still passes the diff identities.
func TestParDiffSelfZero(t *testing.T) {
	a := parManifest(t, "self", 5)
	b := parManifest(t, "self", 5)
	d := Compute(a, b)
	if err := d.CheckIdentities(); err != nil {
		t.Fatal(err)
	}
	if d.Par == nil {
		t.Fatal("diff of two profiled runs has no par section")
	}
	if !d.Zero() {
		var buf bytes.Buffer
		d.WriteText(&buf)
		t.Fatalf("self-diff of a profiled run is not zero:\n%s", buf.String())
	}
	if d.Par.SerializedShareA != d.Par.SerializedShareB {
		t.Errorf("self-diff shifted the serialized share: %v -> %v",
			d.Par.SerializedShareA, d.Par.SerializedShareB)
	}

	// A profiled run diffed against an unprofiled one has no par delta.
	cfg := Compute(a, runManifest(t, "plain", "Tofu", victim.NewDistanceSkewed, 5))
	if cfg.Par != nil {
		t.Error("par delta computed with only one profiled side")
	}
}

// TestParDiffAttribution: two profiled runs at different seeds shift
// the window ledger; the delta's cause rows must sum to the serialized
// shift (the diff identity), and the text report must name the
// serialized-window share and the leading cause.
func TestParDiffAttribution(t *testing.T) {
	a := parManifest(t, "seed5", 5)
	b := parManifest(t, "seed9", 9)
	d := Compute(a, b)
	if err := d.CheckIdentities(); err != nil {
		t.Fatal(err)
	}
	if d.Par == nil {
		t.Fatal("no par delta")
	}
	if d.Par.ShardsA != 4 || d.Par.ShardsB != 4 {
		t.Fatalf("par delta shards = %d -> %d", d.Par.ShardsA, d.Par.ShardsB)
	}
	var buf bytes.Buffer
	if err := d.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"parallel kernel", "serialized-window share"} {
		if !strings.Contains(out, want) {
			t.Errorf("par report missing %q:\n%s", want, out)
		}
	}
	if cause, _ := d.Par.TopCause(); cause != "" &&
		!strings.Contains(out, "leading cause of the shift: "+cause) {
		t.Errorf("report does not name top cause %q:\n%s", cause, out)
	}
}
