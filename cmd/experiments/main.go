// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig09 -scale default
//	experiments -run all -scale quick -o results.txt
//	experiments -matrix -scale quick -matrix-out artifacts/runs/latest -baseline artifacts/runs/baseline
//
// Each experiment prints the rows/series the paper reports, an ASCII
// rendering of the figure, and machine-checked "shape checks" asserting
// the paper's qualitative findings. Exit status is nonzero if any shape
// check fails.
//
// -matrix runs the scenario-matrix regression harness instead: the
// (tree × selector × ranks × fault plan) grid is executed, one run
// manifest per cell lands in -matrix-out, and when -baseline names a
// committed ledger every fresh cell must equal its committed manifest
// byte for byte (exit 1 otherwise; each drifted cell's causal diff
// against its baseline lands next to the manifests as diff-<id>.txt).
// uts -diff compares any two manifests.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"distws/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: exit status 0 when every shape check
// (or the matrix's baseline gate) passes, 1 when one fails or a run or
// an output file cannot finish, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runFlag   = fs.String("run", "all", "comma-separated experiment IDs, or 'all'")
		scaleFlag = fs.String("scale", "default", "experiment scale: quick|default|full")
		seedFlag  = fs.Uint64("seed", 12345, "base random seed")
		outFlag   = fs.String("o", "", "also write the reports to this file")
		jsonFlag  = fs.String("json", "", "write machine-readable reports (JSON lines) to this file")
		csvFlag   = fs.String("csv", "", "write the result tables (CSV) to this file")
		listFlag  = fs.Bool("list", false, "list experiment IDs and exit")

		matrixFlag   = fs.Bool("matrix", false, "run the scenario-matrix regression harness")
		matrixOut    = fs.String("matrix-out", "artifacts/runs/latest", "directory for the matrix's run manifests")
		baselineFlag = fs.String("baseline", "", "baseline ledger directory to gate the matrix against")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, err)
		return code
	}
	if fs.NArg() > 0 {
		return fail(2, fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}

	if *listFlag {
		for _, id := range harness.IDs() {
			e, _ := harness.Lookup(id)
			fmt.Fprintf(stdout, "%-20s %s\n", id, e.Title)
		}
		return 0
	}

	scale, err := harness.ParseScale(*scaleFlag)
	if err != nil {
		return fail(2, err)
	}

	if *matrixFlag {
		if err := runMatrix(stdout, scale, *seedFlag, *matrixOut, *baselineFlag); err != nil {
			return fail(1, err)
		}
		return 0
	}

	var ids []string
	if *runFlag == "all" {
		ids = harness.IDs()
	} else {
		for _, id := range strings.Split(*runFlag, ",") {
			id = strings.TrimSpace(id)
			if _, ok := harness.Lookup(id); !ok {
				return fail(2, fmt.Errorf("unknown experiment %q; -list shows the registry", id))
			}
			ids = append(ids, id)
		}
	}

	// The -o, -json and -csv files, each nil when not asked for. A
	// failed write or close of any of them fails the command.
	var files [3]*os.File
	for i, path := range []string{*outFlag, *jsonFlag, *csvFlag} {
		if path == "" {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			return fail(1, err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				code = fail(1, err)
			}
		}()
		files[i] = f
	}
	out, jsonOut, csvOut := stdout, files[1], files[2]
	if files[0] != nil {
		out = io.MultiWriter(stdout, files[0])
	}

	allPass := true
	start := time.Now()
	for _, id := range ids {
		e, _ := harness.Lookup(id)
		t0 := time.Now()
		rep, err := e.Run(scale, *seedFlag)
		if err != nil {
			return fail(1, fmt.Errorf("experiment %s failed: %w", id, err))
		}
		if _, err := fmt.Fprintf(out, "%s\n(%s in %v at scale %v)\n\n", rep.Render(), id, time.Since(t0).Round(time.Millisecond), scale); err != nil {
			return fail(1, err)
		}
		if jsonOut != nil {
			if err := rep.WriteJSON(jsonOut); err != nil {
				return fail(1, err)
			}
		}
		if csvOut != nil {
			if err := rep.WriteCSV(csvOut); err != nil {
				return fail(1, err)
			}
			if _, err := fmt.Fprintln(csvOut); err != nil {
				return fail(1, err)
			}
		}
		allPass = allPass && rep.Passed()
	}
	if _, err := fmt.Fprintf(out, "total: %d experiment(s) in %v\n", len(ids), time.Since(start).Round(time.Second)); err != nil {
		return fail(1, err)
	}
	if !allPass {
		return fail(1, errors.New("some shape checks FAILED"))
	}
	return 0
}

// runMatrix executes the scenario matrix, writes one manifest per cell,
// and optionally gates the result against a committed baseline ledger.
func runMatrix(stdout io.Writer, scale *harness.Scale, seed uint64, outDir, baselineDir string) error {
	start := time.Now()
	manifests, err := harness.RunMatrix(scale, seed)
	if err != nil {
		return err
	}
	paths, err := harness.WriteMatrix(manifests, outDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "matrix: %d cell(s) at scale %v in %v\n", len(manifests), scale, time.Since(start).Round(time.Millisecond))
	for i, m := range manifests {
		fmt.Fprintf(stdout, "  %-28s makespan %-12v efficiency %.3f  -> %s\n",
			m.ID, m.Makespan(), m.Result.Efficiency, paths[i])
	}
	if baselineDir == "" {
		return nil
	}

	drifts, err := harness.CompareBaseline(baselineDir, manifests)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	if len(drifts) == 0 {
		fmt.Fprintf(stdout, "baseline gate: %d cell(s) identical to %s\n", len(manifests), baselineDir)
		return nil
	}
	// Write the per-cell attribution reports next to the manifests: each
	// drifted cell gets the full causal diff against its baseline, not
	// just the fact that it moved.
	fmt.Fprintf(stdout, "baseline gate: %d of %d cell(s) DRIFTED from %s\n", len(drifts), len(manifests), baselineDir)
	for _, d := range drifts {
		path := filepath.Join(outDir, "diff-"+d.IDB+".txt")
		var text bytes.Buffer
		if err := d.WriteText(&text); err != nil {
			return err
		}
		if err := os.WriteFile(path, text.Bytes(), 0o666); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  DRIFT %s: %s\n  attribution report: %s\n", d.IDB, d.Headline(), path)
	}
	return fmt.Errorf("baseline gate: %d cell(s) drifted", len(drifts))
}
