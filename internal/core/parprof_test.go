package core

import (
	"bytes"
	"fmt"
	"testing"

	"distws/internal/obs"
	"distws/internal/obs/parprof"
	"distws/internal/term"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
)

// runProfiled executes cfg with ParProfile on and a fresh registry,
// returning the canonical golden dump plus the recorded window ledger.
// The ledger is identity-checked on every call: each window must carry
// exactly one cause, and the per-cause virtual-time shares must
// partition the serialized totals.
func runProfiled(t *testing.T, cfg Config) ([]byte, *parprof.Ledger) {
	t.Helper()
	cfg.ParProfile = true
	cfg.Metrics = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Par == nil {
		t.Fatal("ParProfile run returned no ledger")
	}
	if err := res.Par.CheckIdentities(); err != nil {
		t.Fatal(err)
	}
	return goldenDump(t, cfg, res), res.Par
}

// ledgerDump renders every byte of ledger state — shape, per-window
// rows, the pair arena, aggregate totals — so repeat-run comparisons
// assert bit-determinism of the profile itself, not just of its
// aggregates.
func ledgerDump(l *parprof.Ledger) []byte { return fmt.Appendf(nil, "%+v", *l) }

// TestParProfileObserverFreedom: profiling a sharded run must not
// perturb it. The golden Figure 9 configuration at 2 and 4 shards
// produces a byte-identical canonical dump (results, trace, event log,
// Prometheus exposition) with and without ParProfile — recording
// happens at barriers, in coordinator context, and never touches the
// registry.
func TestParProfileObserverFreedom(t *testing.T) {
	for _, shards := range []int{2, 4} {
		cfg := goldenFig9Config()
		cfg.Shards = shards
		want := runDump(t, cfg)
		got, l := runProfiled(t, cfg)
		if !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: profiling perturbed the run\n%s",
				shards, diffHint(want, got))
		}
		if tot := l.Totals(); tot.Windows == 0 || tot.Staged == 0 {
			t.Fatalf("shards=%d: profiled run recorded no activity: %+v", shards, tot)
		}
	}
}

// TestParProfileSequentialRun: the sequential kernel has no windows,
// so a profiled run of it returns no ledger — Result.Par is nil unless
// the run was sharded — and stays byte-identical to the unprofiled run.
func TestParProfileSequentialRun(t *testing.T) {
	cfg := goldenFig9Config()
	want := runDump(t, cfg)
	cfg.ParProfile = true
	cfg.Metrics = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Par != nil {
		t.Fatal("sequential run returned a window ledger")
	}
	if got := goldenDump(t, cfg, res); !bytes.Equal(got, want) {
		t.Fatalf("profiling perturbed the sequential run\n%s", diffHint(want, got))
	}
}

// noDecision hides a detector's term.DecisionAware implementation, so
// the sharded engine can never prove a window decision-free.
type noDecision struct{ term.Detector }

// TestParProfileAllSerialized covers the all-serialized edge: with a
// decision-blind detector every window must serialize under
// CauseDetector, the parallel share must be exactly zero — and the run
// must still match the sequential engine byte for byte (serialized
// windows are the fallback that makes any detector shardable).
func TestParProfileAllSerialized(t *testing.T) {
	base := Config{
		Tree:          uts.MustPreset("H-TINY").Params,
		Ranks:         32,
		Placement:     topology.OnePerNode,
		Selector:      victim.NewRoundRobin,
		Steal:         StealOne,
		Seed:          5,
		Detector:      func(n int) term.Detector { return noDecision{term.NewSafra(n)} },
		CollectTrace:  true,
		CollectEvents: true,
	}
	want := runDump(t, base)
	cfg := base
	cfg.Shards = 4
	got, l := runProfiled(t, cfg)
	if !bytes.Equal(got, want) {
		t.Fatalf("all-serialized sharded run diverged from sequential\n%s", diffHint(want, got))
	}
	tot := l.Totals()
	if tot.Windows == 0 || tot.Serialized != tot.Windows || tot.Parallel != 0 {
		t.Fatalf("decision-blind run not fully serialized: %+v", tot)
	}
	if tot.ByCause[parprof.CauseDetector].Windows != tot.Windows {
		t.Fatalf("windows not attributed to detector-decision: %+v", tot.ByCause)
	}
	if l.SerializedShare() != 1 {
		t.Fatalf("SerializedShare = %v, want 1", l.SerializedShare())
	}
}

// TestParProfileRepeatByteDeterminism pins bit-determinism of the
// ledger itself on the adversarial dense-placement configuration: a
// fixed (config, seed, shards) triple must reproduce every window row,
// pair matrix, and aggregate byte-for-byte across repetitions.
func TestParProfileRepeatByteDeterminism(t *testing.T) {
	cfg := Config{
		Tree:          uts.MustPreset("H-TINY").Params,
		Ranks:         96,
		Placement:     topology.EightRoundRobin,
		Selector:      victim.NewDistanceSkewed,
		Steal:         StealHalf,
		Seed:          42,
		Shards:        4,
		CollectTrace:  true,
		CollectEvents: true,
	}
	dump, l := runProfiled(t, cfg)
	first, firstLedger := dump, ledgerDump(l)
	for run := 2; run <= 3; run++ {
		dump, l := runProfiled(t, cfg)
		if !bytes.Equal(dump, first) {
			t.Fatalf("run %d dump differed from run 1\n%s", run, diffHint(first, dump))
		}
		if got := ledgerDump(l); !bytes.Equal(got, firstLedger) {
			t.Fatalf("run %d ledger differed from run 1\n%s", run, diffHint(firstLedger, got))
		}
	}
}
