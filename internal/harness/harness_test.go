package harness

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"distws/internal/core"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
)

func TestScaleParsing(t *testing.T) {
	for _, s := range scales {
		name := s.String()
		for _, in := range []string{name, strings.ToUpper(name), strings.ToUpper(name[:1]) + name[1:]} {
			if got, err := ParseScale(in); err != nil || got != s {
				t.Fatalf("ParseScale(%q) = %v, %v", in, got, err)
			}
		}
	}
	if got, err := ParseScale(""); err != nil || got != Default {
		t.Fatalf(`ParseScale("") = %v, %v`, got, err)
	}
	_, err := ParseScale("bogus")
	if want := `harness: unknown scale "bogus" (quick|default|full)`; err == nil || err.Error() != want {
		t.Fatalf("bogus scale: %v, want %s", err, want)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1",
		"fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
		"fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"ablation-chunk", "ablation-poll", "ablation-selectors",
		"ablation-term", "ablation-skew", "ablation-backoff",
		"ablation-protocol", "ablation-aborts", "ablation-jitter", "ext-dag",
		"blame", "chaos", "serving",
	}
	for _, id := range want {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		if e.ID != id || e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %q malformed: %+v", id, e)
		}
	}
	if len(IDs()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tab.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "long-column") {
		t.Fatalf("render missing parts:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestReportRenderAndPassed(t *testing.T) {
	rep := &Report{
		ID: "x", Title: "t", Paper: "p",
		Checks: []ShapeCheck{{Desc: "good", Pass: true}, {Desc: "bad", Pass: false, Detail: "d"}},
		Notes:  []string{"n"},
	}
	out := rep.Render()
	for _, want := range []string{"== x — t ==", "[PASS] good", "[FAIL] bad (d)", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if rep.Passed() {
		t.Fatal("Passed with a failing check")
	}
	rep.Checks = rep.Checks[:1]
	if !rep.Passed() {
		t.Fatal("not Passed with all checks green")
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

// TestQuickExperiments runs every registered experiment at Quick scale
// and requires every shape check to pass and the rendered report to
// equal testdata/quick/<id>.txt byte for byte. This is the repository's
// end-to-end smoke of the full reproduction pipeline. A grid renders
// the runs TestGridCellsDiffer checks (quickGrid). Regenerate the
// goldens (only for a deliberate, documented change of a report) with:
//
//	go test ./internal/harness -run TestQuickExperiments -update
func TestQuickExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take ~a minute")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			var rep *Report
			var err error
			if g := gridByID(id); g != nil {
				rows, cols, res := quickGrid(t, g)
				rep, err = g.render(Quick, rows, cols, res)
			} else {
				e, _ := Lookup(id)
				rep, err = e.Run(Quick, 12345)
			}
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if rep.ID != id {
				t.Fatalf("report ID %q for experiment %q", rep.ID, id)
			}
			if len(rep.Tables) == 0 && len(rep.Plots) == 0 {
				t.Fatalf("%s: empty report", id)
			}
			out := rep.Render()
			if len(out) < 50 {
				t.Fatalf("%s: suspiciously short report:\n%s", id, out)
			}
			for _, c := range rep.Checks {
				if !c.Pass {
					t.Errorf("%s: shape check failed: %s (%s)", id, c.Desc, c.Detail)
				}
			}
			path := filepath.Join("testdata", "quick", id+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if out != string(want) {
				t.Errorf("%s: report differs from %s\ngot:\n%s", id, path, out)
			}
		})
	}
}

func TestExecutePropagatesErrors(t *testing.T) {
	// An invalid run (zero ranks) must surface as an error.
	_, err := Execute([]core.Config{Reference.Config(0, Quick.fig2Tree, 1)})
	if err == nil {
		t.Fatal("invalid run did not error")
	}
}

func TestExecuteOrdersResults(t *testing.T) {
	tree := Quick.fig2Tree
	res, err := Execute([]core.Config{Reference.Config(4, tree, 1), Rand.Config(8, tree, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Ranks != 4 || res[1].Ranks != 8 {
		t.Fatal("results out of order")
	}
}

func TestTreeNameResolvesPresets(t *testing.T) {
	if got := treeName(Default.fig2Tree); got != "H-EVEN" {
		t.Fatalf("fig2 default tree name %q", got)
	}
	if got := treeName(Default.sweepTree); got != "H-SWEEP" {
		t.Fatalf("sweep default tree name %q", got)
	}
	custom := Default.sweepTree
	custom.RootSeed = 987654
	if got := treeName(custom); got != "Hybrid" {
		t.Fatalf("custom tree name %q, want the type name", got)
	}
}

// TestScaleParameterTables holds every row of the scale table to the
// invariants the experiments rely on.
func TestScaleParameterTables(t *testing.T) {
	ascending := func(name string, xs []int) {
		t.Helper()
		for i := 1; i < len(xs); i++ {
			if xs[i] <= xs[i-1] {
				t.Errorf("%s %v not strictly ascending", name, xs)
			}
		}
	}
	names := map[string]bool{}
	for _, s := range scales {
		if names[s.String()] {
			t.Errorf("duplicate scale name %q", s)
		}
		names[s.String()] = true
		if got, err := ParseScale(s.String()); err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v", s, got, err)
		}
		for _, tree := range []uts.Params{s.sweepTree, s.fig2Tree, s.ablationTree} {
			if name := treeName(tree); !slices.Contains(uts.PresetNames(), name) {
				t.Errorf("%v: tree %+v is not a preset", s, tree)
			}
			if err := tree.Validate(); err != nil {
				t.Errorf("%v: %v", s, err)
			}
		}
		for _, name := range s.table1Presets {
			if err := uts.MustPreset(name).Params.Validate(); err != nil {
				t.Errorf("%v: Table I preset %s: %v", s, name, err)
			}
		}
		ascending(s.String()+" sweep", s.sweepRanks)
		ascending(s.String()+" fig2", s.fig2Ranks)
		ascending(s.String()+" fig16 rounds", s.fig16Rounds)
		ascending(s.String()+" DAG edge sizes", s.dagEdgeSizes)
		if len(s.sweepRanks) < 3 {
			t.Errorf("%v: sweep ranks %v have fewer than 3 rungs", s, s.sweepRanks)
		}
		for i := 1; i < len(s.sweepRanks); i++ {
			if s.sweepRanks[i] != 2*s.sweepRanks[i-1] {
				t.Errorf("%v: sweep ranks not doubling: %v", s, s.sweepRanks)
			}
		}
		// The sweep note prints the scale as 1/(1024/sweepRanks[0]);
		// the paper's ladder ends at 8192 ranks.
		if 1024%s.sweepRanks[0] != 0 {
			t.Errorf("%v: 1024 is not a multiple of the sweep's first rung %d", s, s.sweepRanks[0])
		}
		if top := topRung(s.sweepRanks); top > 8192 {
			t.Errorf("%v: sweep top rung %d exceeds the paper's 8192 ranks", s, top)
		}
		if s.fig2Ranks[0] != 8 {
			t.Errorf("%v: fig2 ranks start at %d", s, s.fig2Ranks[0])
		}
		if s.ablationRanks/2 < 8 {
			t.Errorf("%v: ext-dag would run at %d < 8 ranks", s, s.ablationRanks/2)
		}
		if !slices.IsSorted(s.servingLoads) || !slices.Contains(s.servingLoads, 1) {
			t.Errorf("%v: serving loads %v must ascend through ρ = 1", s, s.servingLoads)
		}
		if s.servingHorizon <= 0 {
			t.Errorf("%v: serving horizon %v", s, s.servingHorizon)
		}
	}
}

func TestVariantDefinitions(t *testing.T) {
	for _, v := range []Variant{Reference, ReferenceHalf, Rand, RandHalf, Tofu, TofuHalf} {
		if v.Name == "" || v.Selector == nil {
			t.Fatalf("malformed variant %+v", v)
		}
	}
	if Reference.Steal != core.StealOne || TofuHalf.Steal != core.StealHalf {
		t.Fatal("steal policies wrong")
	}
}

// TestRunConfigDefaults pins Variant.Config, the one place the
// experiment-wide defaults are set, and checks that Execute runs a
// caller's overrides of them as given.
func TestRunConfigDefaults(t *testing.T) {
	tree := Quick.fig2Tree
	// The paper's top rung: the reference retries at once at every scale.
	top := Reference.Config(8192, tree, 1)
	if top.ChunkSize != ExperimentChunkSize || !top.ImmediateRetry {
		t.Fatalf("chunk %d, immediate retry %v at 8192 ranks; want %d, true", top.ChunkSize, top.ImmediateRetry, ExperimentChunkSize)
	}
	def := Reference.Config(64, tree, 1)
	chunk, backoff := def, def
	chunk.ChunkSize = 20
	backoff.ImmediateRetry = false
	cfgs := []core.Config{def, chunk, backoff}
	got, err := Execute(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"chunk", "retry"} {
		want, err := core.Run(cfgs[i+1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i+1], want) {
			t.Errorf("Execute did not run the %s override as given", name)
		}
		if reflect.DeepEqual(got[i+1], got[0]) {
			t.Errorf("the %s override changed nothing at 64 ranks; the check above proves nothing", name)
		}
	}
}

// TestExecuteSharesGraph: E1's selector runs share one task graph in
// one parallel batch, as ext-dag makes them. The graph is only read: it
// equals a twin generated alike afterwards, and each result equals the
// same run made alone. Under -race (make race) it checks the reads.
func TestExecuteSharesGraph(t *testing.T) {
	g, err := dagWorkload(Quick, 3, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := dagWorkload(Quick, 3, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []core.Config
	for _, sel := range []victim.Factory{victim.NewRoundRobin, victim.NewUniformRandom, victim.NewDistanceSkewed} {
		cfgs = append(cfgs, dagConfig(g, 16, sel, 3))
	}
	res, err := Execute(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, twin) {
		t.Fatal("a graph run wrote to the shared graph")
	}
	for i, cfg := range cfgs {
		want, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res[i].Nodes != uint64(g.Len()) || !reflect.DeepEqual(res[i], want) {
			t.Errorf("run %d (%s): ran %d of %d tasks; concurrent result equals the sequential one: %v",
				i, res[i].Selector, res[i].Nodes, g.Len(), reflect.DeepEqual(res[i], want))
		}
	}
}

// TestExecuteSharesVictimTables: concurrent Tofu runs on two
// geometries share the distance-skewed selector's cached alias tables,
// building them at once or reading them while another run publishes,
// and each result equals the same run made alone. Under -race (make
// race) it checks that the cache publishes the tables safely.
func TestExecuteSharesVictimTables(t *testing.T) {
	var cfgs []core.Config
	for _, p := range []topology.Placement{topology.OnePerNode, topology.EightGrouped} {
		for seed := uint64(1); seed <= 4; seed++ {
			cfg := Tofu.Config(256, Quick.fig2Tree, seed)
			cfg.Placement = p
			cfgs = append(cfgs, cfg)
		}
	}
	res, err := Execute(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i], want) {
			t.Errorf("run %d (%v, seed %d): concurrent result differs from the sequential one", i, cfg.Placement, cfg.Seed)
		}
	}
}
