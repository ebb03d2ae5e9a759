package harness

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"distws/internal/core"
	"distws/internal/uts"
)

// Most figures and every ablation are a grid of runs read through
// tables: rows of rank counts, granularities or knob values, columns of
// variants. Each is a row of figures or ablations; grid.run runs any:
// its layout in one Execute batch, then render.

func init() {
	for _, g := range slices.Concat(figures, ablations) {
		register(Experiment{ID: g.id, Title: g.listTitle, Run: g.run})
	}
}

// cell is a grid's row or column: a label, a variant and, when not
// nil, the configuration field it sets.
type cell struct {
	label string
	v     Variant
	set   func(*core.Config)
}

// column is a table column: its header and its text in a grid row,
// which may read every run of the row. A headed column reads c = 0; an
// unheaded one stands for one column per labelled grid column, headed
// by its label. An unlabelled grid column is only read by the others.
type column struct {
	header string
	cell   func(row []*core.Result, c int) string
}

// col reads run c of the row through f.
func col(header string, f func(*core.Result) string) column {
	return column{header, func(row []*core.Result, c int) string { return f(row[c]) }}
}

// each is c read in every labelled grid column.
func each(c column) column {
	c.header = ""
	return c
}

// The shared column set.
var (
	speedupCol    = col("speedup", func(r *core.Result) string { return fmtFloat(r.Speedup, 1) })
	efficiencyCol = col("efficiency", func(r *core.Result) string { return fmtFloat(r.Efficiency, 3) })
	failedCol     = col("failed steals", func(r *core.Result) string { return fmt.Sprint(r.FailedSteals) })
	chunksCol     = col("chunks moved", func(r *core.Result) string { return fmt.Sprint(r.ChunksTransferred) })
	searchCol     = col("mean search (ms)", func(r *core.Result) string { return fmtFloat(r.MeanSearchTime.Seconds()*1e3, 3) })
	makespanCol   = col("makespan", func(r *core.Result) string { return fmtDur(r.Makespan) })
	roundsCol     = col("token rounds", func(r *core.Result) string { return fmt.Sprint(r.TerminationRounds) })
	nodesCol      = col("nodes", func(r *core.Result) string { return fmt.Sprint(r.Nodes) })
	prematureCol  = col("premature", func(r *core.Result) string { return fmt.Sprint(r.Premature) })
	abortedCol    = col("aborted", func(r *core.Result) string { return fmt.Sprint(r.AbortedSteals) })
)

// table is a grid's table: the rows' labels under the grid's axis,
// then the columns.
type table struct {
	title   string
	columns []column
}

// plot draws y against the rows' labels read as numbers, one series
// per labelled grid column.
type plot struct {
	title  string
	height int
	y      func(row []*core.Result, c int) float64
}

func speedup(row []*core.Result, c int) float64 { return row[c].Speedup }

// runs are a grid's results: runs[i][c] is row i's run in column c.
type runs [][]*core.Result

// top is column c's run in the last row, prev in the one before.
func (g runs) top(c int) *core.Result  { return g[len(g)-1][c] }
func (g runs) prev(c int) *core.Result { return g[len(g)-2][c] }

// grid is one experiment. The run at a row and a column is the
// column's variant, or the row's when the column names none, with the
// row's set and then the column's applied. A grid without columns has
// one, unlabelled: each row is one run.
type grid struct {
	id string
	// listTitle is the registry's (experiments -list); title is the
	// report's, where a %d is the runs' rank count.
	listTitle, title, paper string
	// at is the rank count every run starts from and its tree; nil is
	// the scale's ablation size.
	at      func(*Scale) (int, uts.Params)
	axis    string
	rows    func(*Scale) []cell
	columns []cell
	tables  []table
	plot    *plot
	note    func(*Scale) string
	checks  func(res runs, scale *Scale) []ShapeCheck
}

// layout is the grid at a scale: its rows, its columns and the
// configuration of every run, row by row.
func (g *grid) layout(s *Scale, seed uint64) (rows, cols []cell, cfgs []core.Config) {
	ranks, tree := s.ablationRanks, s.ablationTree
	if g.at != nil {
		ranks, tree = g.at(s)
	}
	if cols = g.columns; cols == nil {
		cols = []cell{{}}
	}
	rows = g.rows(s)
	for _, r := range rows {
		for _, c := range cols {
			v := c.v
			if v.Name == "" {
				v = r.v
			}
			cfg := v.Config(ranks, tree, seed)
			for _, set := range []func(*core.Config){r.set, c.set} {
				if set != nil {
					set(&cfg)
				}
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return rows, cols, cfgs
}

// run executes the grid and renders it.
func (g *grid) run(scale *Scale, seed uint64) (*Report, error) {
	rows, cols, cfgs := g.layout(scale, seed)
	flat, err := Execute(cfgs)
	if err != nil {
		return nil, err
	}
	return g.render(scale, rows, cols, flat)
}

// render builds the report of the grid's runs, flat in layout order:
// its tables, plot, note and checks.
func (g *grid) render(scale *Scale, rows, cols []cell, flat []*core.Result) (*Report, error) {
	res := make(runs, len(rows))
	for i := range res {
		res[i] = flat[i*len(cols) : (i+1)*len(cols)]
	}
	rep := &Report{ID: g.id, Title: g.title, Paper: g.paper}
	if strings.Contains(g.title, "%d") {
		rep.Title = fmt.Sprintf(g.title, flat[0].Ranks)
	}
	var labelled []int
	for c, col := range cols {
		if col.label != "" {
			labelled = append(labelled, c)
		}
	}
	for _, tab := range g.tables {
		t := &Table{Title: tab.title, Columns: []string{g.axis}, Rows: make([][]string, len(rows))}
		for i, r := range rows {
			t.Rows[i] = []string{r.label}
		}
		for _, col := range tab.columns {
			reads := labelled
			if col.header != "" {
				reads = []int{0}
			}
			for _, c := range reads {
				t.Columns = append(t.Columns, cmp.Or(col.header, cols[c].label))
				for i, row := range res {
					t.Rows[i] = append(t.Rows[i], col.cell(row, c))
				}
			}
		}
		rep.Tables = append(rep.Tables, t)
	}
	if p := g.plot; p != nil {
		var series []Series
		for _, c := range labelled {
			s := Series{Name: cols[c].label}
			for i, r := range rows {
				x, err := strconv.ParseFloat(r.label, 64)
				if err != nil {
					return nil, fmt.Errorf("harness: %s plots row %q, which is not a number", g.id, r.label)
				}
				s.X, s.Y = append(s.X, x), append(s.Y, p.y(res[i], c))
			}
			series = append(series, s)
		}
		rep.Plots = []string{ASCIIPlot(p.title, series, 48, p.height)}
	}
	if g.note != nil {
		rep.Notes = []string{g.note(scale)}
	}
	rep.Checks = g.checks(res, scale)
	return rep, nil
}

// knob is one row of v per value, labelled with the value.
func knob[T any](v Variant, set func(*core.Config, T), values ...T) []cell {
	cells := make([]cell, len(values))
	for i, x := range values {
		cells[i] = cell{fmt.Sprint(x), v, func(c *core.Config) { set(c, x) }}
	}
	return cells
}

// fixed is rows that are the same at every scale; ladder is a row per
// value of a scale's ladder.
func fixed(rows ...cell) func(*Scale) []cell { return func(*Scale) []cell { return rows } }

func ladder(of func(*Scale) []int, set func(*core.Config, int)) func(*Scale) []cell {
	return func(s *Scale) []cell { return knob(Variant{}, set, of(s)...) }
}
