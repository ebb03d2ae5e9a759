package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"distws/internal/obs/ledger"
)

// jsonReport is the machine-readable form of a Report.
type jsonReport struct {
	ID     string       `json:"id"`
	Title  string       `json:"title"`
	Paper  string       `json:"paper,omitempty"`
	Tables []jsonTable  `json:"tables,omitempty"`
	Checks []ShapeCheck `json:"checks,omitempty"`
	Notes  []string     `json:"notes,omitempty"`
	Passed bool         `json:"passed"`
}

type jsonTable struct {
	Title   string     `json:"title,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// WriteJSON serializes the report (without the ASCII plots) as a single
// JSON object, for downstream plotting or regression tracking.
func (r *Report) WriteJSON(w io.Writer) error {
	out := jsonReport{
		ID: r.ID, Title: r.Title, Paper: r.Paper,
		Checks: r.Checks, Notes: r.Notes, Passed: r.Passed(),
	}
	for _, t := range r.Tables {
		out.Tables = append(out.Tables, jsonTable{Title: t.Title, Columns: t.Columns, Rows: t.Rows})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteCSV emits every table of the report as CSV sections separated by
// blank lines, with a leading comment line naming the table. Cells are
// quoted minimally (values here never contain quotes).
func (r *Report) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, t := range r.Tables {
		if i > 0 {
			fmt.Fprintln(bw)
		}
		fmt.Fprintf(bw, "# %s: %s\n", r.ID, t.Title)
		writeCSVRow(bw, t.Columns)
		for _, row := range t.Rows {
			writeCSVRow(bw, row)
		}
	}
	return bw.Flush()
}

// DumpTraces writes every traced outcome as JSONL under dir (created
// if absent), one file per run named after its label and rank count.
// Outcomes without a trace are skipped. Returns the written paths, in
// outcome order, so callers can hand them to tracetool or attach them
// as CI artifacts.
func DumpTraces(outcomes []Outcome, dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for i, o := range outcomes {
		if o.Result == nil || o.Result.Trace == nil {
			continue
		}
		name := fmt.Sprintf("%02d-%s-%d.jsonl", i, slug(o.Run.Label, o.Run.Variant.Name), o.Run.Ranks)
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return paths, err
		}
		if err := o.Result.Trace.WriteJSONL(f); err != nil {
			f.Close()
			return paths, fmt.Errorf("harness: dumping trace %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return paths, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// slug builds a filesystem-safe name fragment from run labels.
func slug(parts ...string) string { return ledger.Slug(strings.Join(parts, " ")) }

func writeCSVRow(w io.Writer, cells []string) {
	quoted := make([]string, len(cells))
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		quoted[i] = c
	}
	fmt.Fprintln(w, strings.Join(quoted, ","))
}
