package harness

import (
	"strings"
	"testing"

	"distws/internal/obs/ledger"
)

// quickMatrix runs the quick-scale matrix with the committed seed, the
// configuration every test (and `make matrix-baseline`) uses.
func quickMatrix(t *testing.T) []*ledger.Manifest {
	t.Helper()
	ms, err := RunMatrix(Quick, 12345)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestMatrixGatesItself: the grid covers every variant, both rank
// counts, and the chaos, serving and faulted-serving cells, each
// carrying the manifest section it exists to pin.
func TestMatrixGatesItself(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	ms := quickMatrix(t)

	// Fault-free grid + the chaos, serving and faulted-serving cells.
	wantCells := len(matrixRanks(Quick))*len(matrixVariants) + 3
	if len(ms) != wantCells {
		t.Fatalf("matrix produced %d cells, want %d", len(ms), wantCells)
	}
	ids := make(map[string]bool, len(ms))
	for _, m := range ms {
		ids[m.ID] = true
	}
	for _, want := range []string{"h-tiny-16-reference", "h-tiny-32-rand", "h-tiny-32-tofu-chaos", "serve-32-tofu", "serve-32-tofu-chaos"} {
		if !ids[want] {
			t.Errorf("matrix is missing cell %q (have %v)", want, ids)
		}
	}
	chaos := ms[len(ms)-3]
	if chaos.Spec.FaultPlanHash == "" {
		t.Error("chaos cell has no fault plan hash")
	}
	if chaos.Result.LostNodes == 0 && chaos.Result.CrashedRanks == 0 {
		t.Error("chaos cell shows no fault effects")
	}
	sv := ms[len(ms)-2]
	if sv.Serve == nil {
		t.Fatal("serving cell has no serve section")
	}
	if sv.Spec.ServeHash == "" {
		t.Error("serving cell has no serve spec hash")
	}
	if sv.Serve.Admitted+sv.Serve.Rejected != sv.Serve.Arrived || sv.Serve.Done != sv.Serve.Admitted {
		t.Errorf("serving cell books %d arrived, %d admitted, %d rejected, %d done",
			sv.Serve.Arrived, sv.Serve.Admitted, sv.Serve.Rejected, sv.Serve.Done)
	}
	if sv.Serve.Rejected == 0 {
		t.Error("serving cell's token bucket rejected nothing; the baseline would not pin admission control")
	}
	if len(sv.Serve.Tenants) != 2 {
		t.Errorf("serving cell has %d tenant rows, want 2", len(sv.Serve.Tenants))
	}
	svc := ms[len(ms)-1].Serve
	if svc == nil || svc.Lost == 0 || svc.Done == 0 || svc.Done+svc.Lost != svc.Admitted {
		t.Errorf("faulted serving cell books %+v; want done and lost jobs both, adding up to admitted", svc)
	}
}

// TestCompareBaselineReportsDrift: a cell whose behaviour moved under an
// unchanged configuration is reported — that cell and no other — with
// its causal diff from the baseline.
func TestCompareBaselineReportsDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	ms := quickMatrix(t)
	dir := t.TempDir()
	if _, err := WriteMatrix(ms, dir); err != nil {
		t.Fatal(err)
	}
	if drifts, err := CompareBaseline(dir, ms); err != nil || len(drifts) != 0 {
		t.Fatalf("matrix against its own baseline: %d drift(s), err %v", len(drifts), err)
	}

	drifted := append([]*ledger.Manifest(nil), ms...)
	clone := *ms[1]
	clone.Result.MakespanNS++
	drifted[1] = &clone
	drifts, err := CompareBaseline(dir, drifted)
	if err != nil {
		t.Fatalf("a behaviour drift must be reported, not a structural error: %v", err)
	}
	if len(drifts) != 1 || drifts[0].IDB != ms[1].ID {
		t.Fatalf("want exactly cell %s reported, got %d drift(s)", ms[1].ID, len(drifts))
	}
	if d := drifts[0]; !d.SameSpec || d.Makespan.Delta != 1 {
		t.Errorf("drift of %s: same spec %v, makespan delta %d; want true, 1", d.IDB, d.SameSpec, d.Makespan.Delta)
	}
}

// TestMatrixPinsCommittedBaseline regenerates the quick matrix with the
// committed seed and runs the matrix's baseline gate on it: every
// cell's manifest must be byte-identical to the golden ledger under
// artifacts/runs/baseline/, and the ledger must hold no other cell. It
// proves that growing the grid (the serving cell rode in this way)
// leaves every pre-existing baseline file untouched, and that the
// ledger is reproducible from a clean checkout. A deliberate behaviour
// change rebaselines with `make matrix-baseline` and commits the diff.
// A drifted cell's failure carries its full causal diff report, the
// text `experiments -matrix -baseline` writes to diff-<id>.txt.
func TestMatrixPinsCommittedBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	drifts, err := CompareBaseline("../../artifacts/runs/baseline", quickMatrix(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range drifts {
		var report strings.Builder
		if err := d.WriteText(&report); err != nil {
			t.Fatal(err)
		}
		t.Errorf("cell %s: manifest drifted from the committed baseline (rebaseline with `make matrix-baseline` if deliberate): %s\n%s",
			d.IDB, d.Headline(), report.String())
	}
}

// TestCompareBaselineStructuralErrors: missing cells, stale cells, and
// fingerprint drift are rebaseline conditions, not reported drifts.
func TestCompareBaselineStructuralErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	ms := quickMatrix(t)

	// Missing baseline cell.
	dir := t.TempDir()
	if _, err := WriteMatrix(ms[:len(ms)-1], dir); err != nil {
		t.Fatal(err)
	}
	if _, err := CompareBaseline(dir, ms); err == nil ||
		!strings.Contains(err.Error(), "no baseline manifest") {
		t.Errorf("missing baseline cell: err = %v", err)
	}

	// Stale baseline cell the matrix no longer produces.
	dir = t.TempDir()
	if _, err := WriteMatrix(ms, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := CompareBaseline(dir, ms[:len(ms)-1]); err == nil ||
		!strings.Contains(err.Error(), "no longer produces") {
		t.Errorf("stale baseline cell: err = %v", err)
	}

	// Fingerprint drift: same cell ID, different configuration.
	drifted := make([]*ledger.Manifest, len(ms))
	copy(drifted, ms)
	clone := *ms[0]
	clone.Spec.Seed++
	clone.Fingerprint = clone.Spec.Fingerprint()
	drifted[0] = &clone
	if _, err := CompareBaseline(dir, drifted); err == nil ||
		!strings.Contains(err.Error(), "configuration drifted") {
		t.Errorf("fingerprint drift: err = %v", err)
	}
}
