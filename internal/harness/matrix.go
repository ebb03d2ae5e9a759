package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"distws/internal/core"
	"distws/internal/obs/diff"
	"distws/internal/obs/ledger"
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/uts"
)

// The scenario matrix is the regression harness behind
// TestMatrixPinsCommittedBaseline: a small grid of (tree preset × victim
// selector × rank count × fault plan) cells, each executed
// deterministically and summarized into a run manifest
// (internal/obs/ledger). Every run is a pure function of (scale, seed),
// so the test requires each freshly generated manifest to equal, byte
// for byte, its committed baseline under artifacts/runs/baseline/; a
// cell that differs fails it with a causal attribution report
// (internal/obs/diff) instead of a bare number.

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
func matrixServeSpec(horizon sim.Duration) *serve.Spec {
	tree := uts.Params{
		Type:        uts.Binomial,
		B0:          20,
		NonLeafBF:   2,
		NonLeafProb: 0.45,
		RootSeed:    31,
		Hash:        uts.HashFast,
	}
	return &serve.Spec{
		Horizon:   horizon,
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

// RunMatrix executes the scenario grid plus its chaos, serving and
// faulted-serving cells and returns the manifests in cell order. The
// chaos plan derives from a dedicated fault-free calibration run, so
// every cell — the chaos cell's fault plan included — is a pure
// function of (scale, seed).
func RunMatrix(scale *Scale, seed uint64) ([]*ledger.Manifest, error) {
	params := scale.ablationTree
	tree := treeName(params)
	var cells []matrixCell
	for _, ranks := range scale.matrixRanks {
		for _, v := range matrixVariants {
			cells = append(cells, loggedCell(cellID(tree, ranks, v.Name, false), tree, v, ranks, params, seed))
		}
	}
	chaosRanks := topRung(scale.matrixRanks)

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
	// the spec's own small per-tenant tree, not the scale preset — job
	// size stays bounded while rank counts grow with scale.
	sv := loggedCell(fmt.Sprintf("serve-%d-%s", chaosRanks, strings.ToLower(Tofu.Name)),
		"SERVE", Tofu, chaosRanks, uts.Params{}, seed)
	sv.cfg.Serve, sv.cfg.ImmediateRetry = matrixServeSpec(scale.matrixHorizon), false
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
		spec := ledger.SpecFromConfig(c.tree, scale.String(), c.cfg)
		spec.Selector = c.selector
		m := ledger.FromRun(c.id, spec, res[i])
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("harness: matrix cell %s produced an invalid manifest: %w", c.id, err)
		}
		manifests[i] = m
	}
	return manifests, nil
}

// WriteMatrix writes one manifest file per cell into dir and returns
// the written paths in cell order.
func WriteMatrix(manifests []*ledger.Manifest, dir string) ([]string, error) {
	paths := make([]string, len(manifests))
	for i, m := range manifests {
		path := filepath.Join(dir, m.FileName())
		if err := m.WriteFile(path); err != nil {
			return nil, err
		}
		paths[i] = path
	}
	return paths, nil
}

// CompareBaseline judges freshly generated manifests against the
// committed baseline ledger in baselineDir by equality. Structural
// mismatches — missing or extra cells, or a configuration fingerprint
// drift (the grid itself changed, so a rebaseline is required) — come
// back as errors. Every other cell whose canonical encoding differs
// from its committed file comes back, in cell order, as the causal diff
// from its baseline. A committed file is compared as it is, not
// validated first: a corrupt baseline is drift like any other.
func CompareBaseline(baselineDir string, got []*ledger.Manifest) ([]*diff.Delta, error) {
	committed, err := filepath.Glob(filepath.Join(baselineDir, "*.manifest.json"))
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(got))
	var drifts []*diff.Delta
	for _, m := range got {
		path := filepath.Join(baselineDir, m.FileName())
		want, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("harness: cell %q has no baseline manifest in %s (run `make matrix-baseline` and commit it)", m.ID, baselineDir)
		}
		seen[path] = true
		b, err := ledger.Decode(want)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if b.Spec.Fingerprint() != m.Fingerprint {
			return nil, fmt.Errorf("harness: cell %q configuration drifted from its baseline (%s; rebaseline with `make matrix-baseline`)",
				m.ID, strings.Join(diff.Compute(b, m).SpecChanges, "; "))
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
		return nil, fmt.Errorf("harness: baseline %s has cell(s) the matrix no longer produces: %s (rebaseline with `make matrix-baseline`)",
			baselineDir, strings.Join(stale, ", "))
	}
	return drifts, nil
}
