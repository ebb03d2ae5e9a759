package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distws/internal/core"
	"distws/internal/obs/diff"
	"distws/internal/obs/ledger"
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/uts"
)

// The scenario matrix is the regression gate of
// TestMatrixPinsCommittedBaseline: a small grid of (tree preset × victim
// selector × rank count × fault plan) cells at quick scale, each
// executed deterministically and summarized into a run manifest
// (internal/obs/ledger). Every run is a pure function of the seed, so
// the test requires each freshly generated manifest to equal, byte for
// byte, its committed baseline under artifacts/runs/baseline/; a cell
// that differs fails it with a causal attribution report
// (internal/obs/diff) instead of a bare number. Rebaseline, after a
// deliberate behaviour change, with
//
//	go test ./internal/harness -run 'TestQuickExperiments|TestMatrixPinsCommittedBaseline' -update
//
// review `git diff artifacts/runs/baseline` and commit it.

// baselineDir is the committed golden ledger, relative to this package.
const baselineDir = "../../artifacts/runs/baseline"

// matrixRanks is the matrix's rank ladder; its chaos and serving cells
// run at the top, the serving cells for matrixHorizon.
var matrixRanks = []int{16, 32}

const matrixHorizon = 20 * sim.Millisecond

// matrixVariants are the policies the matrix tracks: the paper's
// reference, uniform random, and the distance-skewed winner. The grid
// stays small on purpose — it is a smoke gate, not the full Fig. 9
// sweep.
var matrixVariants = []Variant{Reference, Rand, Tofu}

// matrixCell pairs a run with its manifest identity: the cell ID, the
// workload label and the selector name the spec records.
type matrixCell struct {
	id, tree, selector string
	cfg                core.Config
}

// cellID derives the deterministic manifest ID for one cell.
func cellID(tree string, ranks int, variant string, chaos bool) string {
	id := fmt.Sprintf("%s-%d-%s", strings.ToLower(tree), ranks,
		strings.ReplaceAll(strings.ToLower(variant), " ", "-"))
	if chaos {
		id += "-chaos"
	}
	return id
}

// matrixServeSpec is the serving cell's fixed two-tenant plan: a gold
// tenant under a tight token bucket (so the baseline pins nonzero
// rejections) and a best-effort silver tenant, both injecting small
// trees (E[nodes] ≈ 200, ≈200µs of serial work per job). The offered
// load is absolute, not scaled to the cell's rank count — the cell is
// a schema and determinism gate, not a saturation study.
func matrixServeSpec() *serve.Spec {
	tree := uts.Params{
		Type:        uts.Binomial,
		B0:          20,
		NonLeafBF:   2,
		NonLeafProb: 0.45,
		RootSeed:    31,
		Hash:        uts.HashFast,
	}
	return &serve.Spec{
		Horizon:   matrixHorizon,
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
				SLO:     serve.SLO{Class: "best-effort"},
				Work:    serve.Workload{Kind: serve.WorkUTS, Tree: tree},
			},
		},
	}
}

// loggedCell is a matrix cell running v with the event log on.
func loggedCell(id, tree string, v Variant, ranks int, params uts.Params, seed uint64) matrixCell {
	cfg := v.Config(ranks, params, seed)
	cfg.CollectEvents = true
	return matrixCell{id: id, tree: tree, selector: v.Name, cfg: cfg}
}

// runMatrix executes the scenario grid plus its chaos, serving and
// faulted-serving cells and returns the manifests in cell order. The
// chaos plan derives from a dedicated fault-free calibration run, so
// every cell — the chaos cell's fault plan included — is a pure
// function of the seed.
func runMatrix(seed uint64) ([]*ledger.Manifest, error) {
	params := Quick.ablationTree
	tree := treeName(params)
	var cells []matrixCell
	for _, ranks := range matrixRanks {
		for _, v := range matrixVariants {
			cells = append(cells, loggedCell(cellID(tree, ranks, v.Name, false), tree, v, ranks, params, seed))
		}
	}
	chaosRanks := topRung(matrixRanks)

	cal, err := Execute([]core.Config{Reference.Config(chaosRanks, params, seed)})
	if err != nil {
		return nil, err
	}
	chaos := loggedCell(cellID(tree, chaosRanks, Tofu.Name, true), tree, Tofu, chaosRanks, params, seed)
	chaos.cfg.Faults = chaosPlan(chaosRanks, cal[0].Makespan, seed)
	cells = append(cells, chaos)

	// One open-system serving cell: its manifest carries the `serve`
	// section (per-tenant goodput, sojourn percentiles, admission
	// counts, Jain), so the baseline pins serving behaviour and the
	// serve schema round-trips through the baseline. The workload is
	// the spec's own small per-tenant tree, not the scale preset.
	sv := loggedCell(fmt.Sprintf("serve-%d-%s", chaosRanks, strings.ToLower(Tofu.Name)),
		"SERVE", Tofu, chaosRanks, uts.Params{}, seed)
	sv.cfg.Serve, sv.cfg.ImmediateRetry = matrixServeSpec(), false
	// The service under the chaos plan, struck while jobs arrive at the
	// low ranks round-robin placement roots them on: lost and done jobs.
	svChaos := sv
	svChaos.id += "-chaos"
	svChaos.cfg.Faults = chaosPlan(chaosRanks/2, sv.cfg.Serve.Horizon, seed)
	cells = append(cells, sv, svChaos)

	cfgs := make([]core.Config, len(cells))
	for i, c := range cells {
		cfgs[i] = c.cfg
	}
	res, err := Execute(cfgs)
	if err != nil {
		return nil, err
	}

	manifests := make([]*ledger.Manifest, len(res))
	for i, c := range cells {
		spec := ledger.SpecFromConfig(c.tree, Quick.String(), c.cfg)
		spec.Selector = c.selector
		m := ledger.FromRun(c.id, spec, res[i])
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("harness: matrix cell %s produced an invalid manifest: %w", c.id, err)
		}
		manifests[i] = m
	}
	return manifests, nil
}

// quickMatrix runs the matrix with the committed seed, the
// configuration every test (and the -update rebaseline) uses.
func quickMatrix(t *testing.T) []*ledger.Manifest {
	t.Helper()
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	ms, err := runMatrix(12345)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// writeMatrix makes dir hold exactly the given manifests: one file per
// cell under its canonical name, and no other *.manifest.json.
func writeMatrix(manifests []*ledger.Manifest, dir string) error {
	keep := make(map[string]bool, len(manifests))
	for _, m := range manifests {
		path := filepath.Join(dir, m.FileName())
		if err := m.WriteFile(path); err != nil {
			return err
		}
		keep[path] = true
	}
	old, err := filepath.Glob(filepath.Join(dir, "*.manifest.json"))
	if err != nil {
		return err
	}
	for _, path := range old {
		if !keep[path] {
			if err := os.Remove(path); err != nil {
				return err
			}
		}
	}
	return nil
}

// compareBaseline judges freshly generated manifests against the
// committed baseline ledger in dir by equality. Structural mismatches —
// missing or extra cells, or a configuration fingerprint drift (the
// grid itself changed, so a rebaseline is required) — come back as
// errors. Every other cell whose canonical encoding differs from its
// committed file comes back, in cell order, as the causal diff from its
// baseline. A committed file is compared as it is, not validated
// first: a corrupt baseline is drift like any other.
func compareBaseline(dir string, got []*ledger.Manifest) ([]*diff.Delta, error) {
	const rebaseline = "rebaseline with -update"
	committed, err := filepath.Glob(filepath.Join(dir, "*.manifest.json"))
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(got))
	var drifts []*diff.Delta
	for _, m := range got {
		path := filepath.Join(dir, m.FileName())
		want, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("harness: cell %q has no baseline manifest in %s (%s)", m.ID, dir, rebaseline)
		}
		seen[path] = true
		b, err := ledger.Decode(want)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if b.Spec.Fingerprint() != m.Fingerprint {
			return nil, fmt.Errorf("harness: cell %q configuration drifted from its baseline (%s; %s)",
				m.ID, strings.Join(diff.Compute(b, m).SpecChanges, "; "), rebaseline)
		}
		have, err := m.Encode()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(want, have) {
			drifts = append(drifts, diff.Compute(b, m))
		}
	}
	var stale []string
	for _, path := range committed {
		if !seen[path] {
			stale = append(stale, filepath.Base(path))
		}
	}
	if len(stale) > 0 {
		return nil, fmt.Errorf("harness: baseline %s has cell(s) the matrix no longer produces: %s (%s)",
			dir, strings.Join(stale, ", "), rebaseline)
	}
	return drifts, nil
}

// TestMatrixGatesItself: the grid covers every variant, both rank
// counts, and the chaos, serving and faulted-serving cells, each
// carrying the manifest section it exists to pin.
func TestMatrixGatesItself(t *testing.T) {
	ms := quickMatrix(t)

	// Fault-free grid + the chaos, serving and faulted-serving cells.
	wantCells := len(matrixRanks)*len(matrixVariants) + 3
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
	ms := quickMatrix(t)
	dir := t.TempDir()
	if err := writeMatrix(ms, dir); err != nil {
		t.Fatal(err)
	}
	if drifts, err := compareBaseline(dir, ms); err != nil || len(drifts) != 0 {
		t.Fatalf("matrix against its own baseline: %d drift(s), err %v", len(drifts), err)
	}

	drifted := append([]*ledger.Manifest(nil), ms...)
	clone := *ms[1]
	clone.Result.MakespanNS++
	drifted[1] = &clone
	drifts, err := compareBaseline(dir, drifted)
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
// ledger is reproducible from a clean checkout. A drifted cell's
// failure carries its full causal diff report. With -update the test
// rewrites the ledger to exactly the fresh cells instead, removing any
// manifest the matrix no longer produces.
func TestMatrixPinsCommittedBaseline(t *testing.T) {
	ms := quickMatrix(t)
	if *updateGolden {
		if err := writeMatrix(ms, baselineDir); err != nil {
			t.Fatal(err)
		}
		return
	}
	drifts, err := compareBaseline(baselineDir, ms)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range drifts {
		var report strings.Builder
		if err := d.WriteText(&report); err != nil {
			t.Fatal(err)
		}
		t.Errorf("cell %s: manifest drifted from the committed baseline (rebaseline with -update if deliberate): %s\n%s",
			d.IDB, d.Headline(), report.String())
	}
}

// TestCompareBaselineStructuralErrors: missing cells, stale cells, and
// fingerprint drift are rebaseline conditions, not reported drifts.
func TestCompareBaselineStructuralErrors(t *testing.T) {
	ms := quickMatrix(t)

	// Missing baseline cell.
	dir := t.TempDir()
	if err := writeMatrix(ms[:len(ms)-1], dir); err != nil {
		t.Fatal(err)
	}
	if _, err := compareBaseline(dir, ms); err == nil ||
		!strings.Contains(err.Error(), "no baseline manifest") {
		t.Errorf("missing baseline cell: err = %v", err)
	}

	// Stale baseline cell the matrix no longer produces.
	dir = t.TempDir()
	if err := writeMatrix(ms, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := compareBaseline(dir, ms[:len(ms)-1]); err == nil ||
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
	if _, err := compareBaseline(dir, drifted); err == nil ||
		!strings.Contains(err.Error(), "configuration drifted") {
		t.Errorf("fingerprint drift: err = %v", err)
	}
}
