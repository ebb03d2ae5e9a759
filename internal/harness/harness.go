// Package harness defines the reproduction experiments: one runnable
// experiment per table and figure of the paper, plus ablations. Each
// experiment builds a set of simulator configurations, runs them (in
// parallel across host CPUs — every simulation itself is
// deterministic and single-threaded), and renders a report with the
// same rows or series the paper presents, together with machine-checked
// "shape checks" asserting the paper's qualitative findings.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"distws/internal/sim"
	"distws/internal/uts"
)

// Scale is one row of the experiment scale table: every rank count,
// workload and horizon an experiment sizes by scale. Experiments read
// the row's values and never ask which row they run at. Only the rows
// below are valid scales; a zero Scale has no ladders to run.
type Scale struct {
	name string
	// sweepRanks is the ladder of the large speedup sweeps (paper:
	// 1024-8192), sweepTree their workload. Figures 5, 12, 13 and 16
	// run at the top of the ladder.
	sweepRanks []int
	sweepTree  uts.Params
	// fig2Ranks is the small-scale ladder of Figure 2 (paper: 8-128),
	// fig2Tree its workload: H-EVEN has many shallow binomial subtrees
	// so that, as in the paper's 2.8e9-node runs, per-rank work dwarfs
	// both the distribution ramp and the drain tail. Figure 4 runs at
	// the top of the ladder.
	fig2Ranks []int
	fig2Tree  uts.Params
	// ablationRanks sizes the ablations and the chaos experiment;
	// ext-dag runs at half of it. ablationTree is their workload and
	// the scenario matrix's.
	ablationRanks int
	ablationTree  uts.Params
	// fig8Ranks is the allocation Figure 8 draws its PDF over;
	// blameRanks is the one size of the causal tables (a single size
	// keeps the event logs affordable).
	fig8Ranks, blameRanks int
	// matrixRanks is the scenario matrix's ladder; its chaos and
	// serving cells run at the top, the serving cells for matrixHorizon.
	matrixRanks   []int
	matrixHorizon sim.Duration
	// servingRanks and servingHorizon size the serving sweep;
	// servingLoads are the gold tenant's offered-load factors ρ =
	// offered/capacity, ascending through the knee at ρ = 1.
	servingRanks   int
	servingHorizon sim.Duration
	servingLoads   []float64
	// fig16Rounds are Figure 16's SHA-round granularities.
	fig16Rounds []int
	// dagLayers and dagWidth size ext-dag's task graph; dagEdgeSizes
	// is its ascending sweep of per-edge data sizes in bytes.
	dagLayers, dagWidth int
	dagEdgeSizes        []int
	// table1Presets are the presets Table I lists, enumerated up to
	// table1Limit nodes.
	table1Presets []string
	table1Limit   uint64
	// toy marks a scale too small to order the selectors: the checks
	// that compare policies by a margin relax to sanity checks.
	toy bool
}

// The scale table. A row's sweep scales the paper's 1024-8192 ranks by
// 1024/sweepRanks[0]. Quick is for tests and smoke runs: small trees,
// few ranks, 1/32 of the paper's. Default regenerates every figure in
// minutes with the sweeps at 1/8. Full sweeps the paper's own ranks on
// ~40M-node trees, about half an hour on two cores.
var (
	Quick = &Scale{
		name:       "quick",
		sweepRanks: []int{32, 64, 128}, sweepTree: uts.MustPreset("H-SMALL").Params,
		fig2Ranks: []int{8, 16, 32}, fig2Tree: uts.MustPreset("H-TINY").Params,
		ablationRanks: 64, ablationTree: uts.MustPreset("H-TINY").Params,
		fig8Ranks: 128, blameRanks: 64,
		matrixRanks: []int{16, 32}, matrixHorizon: 20 * sim.Millisecond,
		servingRanks: 8, servingHorizon: 20 * sim.Millisecond, servingLoads: []float64{0.25, 0.5, 1, 2},
		fig16Rounds: []int{1, 4, 16},
		dagLayers:   16, dagWidth: 8, dagEdgeSizes: []int{1 << 10, 64 << 10, 512 << 10},
		table1Presets: []string{"T3XXL", "T3WL", "T3", "H-TINY"}, table1Limit: 1_000_000,
		toy: true,
	}
	Default = &Scale{
		name:       "default",
		sweepRanks: []int{128, 256, 512, 1024}, sweepTree: uts.MustPreset("H-SWEEP").Params,
		fig2Ranks: []int{8, 16, 32, 64, 128}, fig2Tree: uts.MustPreset("H-EVEN").Params,
		ablationRanks: 256, ablationTree: uts.MustPreset("H-SMALL").Params,
		fig8Ranks: 1024, blameRanks: 256,
		matrixRanks: []int{64, 128}, matrixHorizon: 40 * sim.Millisecond,
		servingRanks: 16, servingHorizon: 40 * sim.Millisecond, servingLoads: []float64{0.25, 0.5, 1, 2},
		fig16Rounds: []int{1, 2, 4, 8, 16, 24},
		dagLayers:   40, dagWidth: 24, dagEdgeSizes: []int{1 << 10, 64 << 10, 256 << 10, 1 << 20},
		table1Presets: []string{"T3XXL", "T3WL", "T3S", "T3M", "H-SMALL", "H-SWEEP"}, table1Limit: 20_000_000,
	}
	Full = &Scale{
		name:       "full",
		sweepRanks: []int{1024, 2048, 4096, 8192}, sweepTree: uts.MustPreset("H-FULL").Params,
		fig2Ranks: []int{8, 16, 32, 64, 128}, fig2Tree: uts.MustPreset("H-EVEN").Params,
		ablationRanks: 512, ablationTree: uts.MustPreset("H-SMALL").Params,
		fig8Ranks: 1024, blameRanks: 1024,
		matrixRanks: []int{128, 256}, matrixHorizon: 40 * sim.Millisecond,
		servingRanks: 32, servingHorizon: 80 * sim.Millisecond, servingLoads: []float64{0.25, 0.5, 1, 2, 4},
		fig16Rounds: []int{1, 2, 4, 8, 16, 24},
		dagLayers:   64, dagWidth: 48, dagEdgeSizes: []int{1 << 10, 64 << 10, 256 << 10, 1 << 20},
		table1Presets: []string{"T3XXL", "T3WL", "T3S", "T3M", "H-SMALL", "H-SWEEP"}, table1Limit: 20_000_000,
	}
	scales = []*Scale{Quick, Default, Full}
)

func (s *Scale) String() string { return s.name }

// topRung is the last rung of a rank ladder.
func topRung(ladder []int) int { return ladder[len(ladder)-1] }

// ParseScale looks a flag value up in the scale table; "" is Default.
func ParseScale(name string) (*Scale, error) {
	if name == "" {
		return Default, nil
	}
	names := make([]string, len(scales))
	for i, s := range scales {
		if strings.EqualFold(name, s.name) {
			return s, nil
		}
		names[i] = s.name
	}
	return nil, fmt.Errorf("harness: unknown scale %q (%s)", name, strings.Join(names, "|"))
}

// ShapeCheck is one machine-verified qualitative finding.
type ShapeCheck struct {
	// Desc states the paper's claim being checked.
	Desc string
	// Pass reports whether this run's data supports it.
	Pass bool
	// Detail quantifies the observation.
	Detail string
}

// Table is a formatted result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Render aligns the table into a string.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Report is the outcome of one experiment.
type Report struct {
	ID    string
	Title string
	// Paper summarizes what the paper's corresponding figure shows.
	Paper  string
	Tables []*Table
	// Plots holds ASCII renderings of the figure's series.
	Plots []string
	// Checks are the verified qualitative findings.
	Checks []ShapeCheck
	// Notes records scaling decisions or caveats for this run.
	Notes []string
}

// Passed reports whether all shape checks succeeded.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Render formats the full report.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	if r.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.Paper)
	}
	b.WriteByte('\n')
	for _, t := range r.Tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	for _, p := range r.Plots {
		b.WriteString(p)
		b.WriteByte('\n')
	}
	if len(r.Checks) > 0 {
		b.WriteString("shape checks:\n")
		for _, c := range r.Checks {
			mark := "PASS"
			if !c.Pass {
				mark = "FAIL"
			}
			fmt.Fprintf(&b, "  [%s] %s", mark, c.Desc)
			if c.Detail != "" {
				fmt.Fprintf(&b, " (%s)", c.Detail)
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	// Run executes the experiment at the given scale with the given
	// base seed.
	Run func(scale *Scale, seed uint64) (*Report, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Lookup returns a registered experiment.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs returns all experiment IDs, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
