package ledger

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"distws/internal/core"
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/uts"
)

// serveSpec is a small two-tenant open-system plan: a gold tenant under
// a tight token bucket (so the manifest records nonzero rejections) and
// a best-effort silver tenant.
func serveSpec() *serve.Spec {
	tree := uts.Params{
		Type:        uts.Binomial,
		B0:          20,
		NonLeafBF:   2,
		NonLeafProb: 0.45,
		RootSeed:    31,
		Hash:        uts.HashFast,
	}
	return &serve.Spec{
		Horizon:   50 * sim.Millisecond,
		Placement: serve.PlaceRR,
		Tenants: []serve.Tenant{
			{
				Name:    "gold",
				Arrival: serve.ArrivalSpec{Process: serve.ProcPoisson, Mean: sim.Millisecond},
				Admit:   serve.Bucket{Rate: 150, Burst: 2},
				SLO:     serve.SLO{Class: "gold", Target: 10 * sim.Millisecond},
				Work:    serve.Workload{Kind: serve.WorkUTS, Tree: tree},
			},
			{
				Name:    "silver",
				Arrival: serve.ArrivalSpec{Process: serve.ProcGamma, Mean: 6 * sim.Millisecond, Shape: 2},
				Work:    serve.Workload{Kind: serve.WorkUTS, Tree: tree},
			},
		},
	}
}

// serveConfig is the smallest serving run whose manifest carries a full
// serve section.
func serveConfig() core.Config {
	cfg := testConfig()
	cfg.Tree = uts.Params{}
	cfg.Ranks = 8
	cfg.Serve = serveSpec()
	return cfg
}

// serveManifest builds a validated manifest from one serving run.
func serveManifest(t *testing.T, id string) *Manifest {
	t.Helper()
	cfg := serveConfig()
	spec := SpecFromConfig("SERVE", "quick", cfg)
	spec.Selector = "Tofu"
	m := FromRun(id, spec, mustRun(t, cfg))
	if err := m.Validate(); err != nil {
		t.Fatalf("serving manifest invalid: %v", err)
	}
	return m
}

// TestServeSectionFromRun: a serving run fills the serve section with
// the admission partition identity intact globally and per tenant, and
// a closed-system run of the same shape has no serve section at all.
func TestServeSectionFromRun(t *testing.T) {
	m := serveManifest(t, "serve-section")
	s := m.Serve
	if s == nil {
		t.Fatal("serving run produced no serve section")
	}
	if m.Spec.ServeHash == "" {
		t.Fatal("serving spec has no serve hash")
	}
	if s.Arrived == 0 || s.Admitted+s.Rejected != s.Arrived {
		t.Fatalf("admission identity broken: %d arrived, %d admitted, %d rejected",
			s.Arrived, s.Admitted, s.Rejected)
	}
	if s.Done != s.Admitted {
		t.Errorf("%d done of %d admitted; serving runs drain fully", s.Done, s.Admitted)
	}
	if s.Rejected == 0 {
		t.Error("token bucket rejected nothing; the section would not pin admission control")
	}
	if s.Jain <= 0 || s.Jain > 1 {
		t.Errorf("Jain index %v out of (0, 1]", s.Jain)
	}
	if len(s.Tenants) != 2 {
		t.Fatalf("%d tenant rows, want 2", len(s.Tenants))
	}
	var arrived, admitted, rejected, done uint64
	for _, ts := range s.Tenants {
		if ts.Admitted+ts.Rejected != ts.Arrived {
			t.Errorf("tenant %s identity broken: %d arrived, %d admitted, %d rejected",
				ts.Name, ts.Arrived, ts.Admitted, ts.Rejected)
		}
		arrived += ts.Arrived
		admitted += ts.Admitted
		rejected += ts.Rejected
		done += ts.Done
	}
	if arrived != s.Arrived || admitted != s.Admitted || rejected != s.Rejected || done != s.Done {
		t.Error("tenant rows do not sum to the global counts")
	}
	if gold := s.Tenants[0]; gold.SLOMet == 0 || gold.GoodputPerSec == 0 || gold.SojournP95NS == 0 {
		t.Errorf("gold tenant row is empty: %+v", gold)
	}

	// A closed-system run gets no serve section and no serve hash.
	cfg := testConfig()
	closed := FromRun("closed", testSpec(cfg), mustRun(t, cfg))
	if closed.Serve != nil {
		t.Error("closed-system run produced a serve section")
	}
	if closed.Spec.ServeHash != "" {
		t.Error("closed-system spec carries a serve hash")
	}
}

// TestServeSectionRoundTrip: the serve section survives the file round
// trip exactly, and its JSON spells the documented field names.
func TestServeSectionRoundTrip(t *testing.T) {
	m := serveManifest(t, "serve-roundtrip")
	path := filepath.Join(t.TempDir(), m.FileName())
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Serve, m.Serve) {
		t.Fatalf("serve section changed across the round trip:\n%+v\nvs\n%+v", back.Serve, m.Serve)
	}
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"serve"`, `"serve_hash"`, `"jain"`, `"goodput_per_sec"`, `"sojourn_p95_ns"`, `"slo_met"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("encoded manifest lacks %s", want)
		}
	}
	if bytes.Contains(data, []byte(`"lost":`)) {
		t.Error("a fault-free serving manifest spells a lost count")
	}
}

// TestServeValidateCatchesCorruption: the schema checker rejects every
// broken serve identity — the admission partition, drain accounting,
// fairness range, and tenant-row sums.
func TestServeValidateCatchesCorruption(t *testing.T) {
	for name, tamper := range map[string]func(*Manifest){
		"global partition": func(m *Manifest) { m.Serve.Admitted++ },
		"overdrain":        func(m *Manifest) { m.Serve.Done = m.Serve.Admitted + 1 },
		"undrained":        func(m *Manifest) { m.Serve.Done-- },
		"lost and done":    func(m *Manifest) { m.Serve.Lost++ },
		"jain range":       func(m *Manifest) { m.Serve.Jain = 1.5 },
		"no tenants":       func(m *Manifest) { m.Serve.Tenants = nil },
		"tenant partition": func(m *Manifest) { m.Serve.Tenants[0].Rejected++ },
		"tenant sums": func(m *Manifest) {
			m.Serve.Tenants[0].Arrived++
			m.Serve.Tenants[0].Admitted++
		},
	} {
		m := serveManifest(t, "serve-corrupt")
		tamper(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s corruption passed validation", name)
		} else if !strings.Contains(err.Error(), "serve") {
			t.Errorf("%s corruption error does not name the serve section: %v", name, err)
		}
	}
}

// TestServeHashFingerprint pins the compatibility contract: the serve
// hash enters the spec (and therefore the fingerprint) only when the
// run serves, so every pre-existing closed-system baseline keeps its
// fingerprint.
func TestServeHashFingerprint(t *testing.T) {
	if h := ServeHash(nil); h != "" {
		t.Fatalf("nil spec hashes to %q", h)
	}
	a := serveSpec()
	b := serveSpec()
	b.Horizon *= 2
	if ServeHash(a) == "" || ServeHash(a) == ServeHash(b) {
		t.Fatal("distinct serving specs must have distinct nonzero hashes")
	}

	closedCfg := testConfig()
	closed := testSpec(closedCfg)
	servingCfg := closedCfg
	servingCfg.Serve = a
	serving := SpecFromConfig("T3", "quick", servingCfg)
	serving.Selector = "Tofu"
	if closed.Fingerprint() == serving.Fingerprint() {
		t.Error("serve spec does not enter the fingerprint")
	}
	m := FromRun("closed-spec", closed, mustRun(t, closedCfg))
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"serve_hash"`)) {
		t.Error("closed-system manifest spells a serve_hash field (breaks old fingerprints)")
	}
}
