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
// against its baseline lands next to the manifests for CI upload).
// tracetool -diff compares any two manifests or traces.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"distws/internal/harness"
)

func main() {
	var (
		runFlag   = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		scaleFlag = flag.String("scale", "default", "experiment scale: quick|default|full")
		seedFlag  = flag.Uint64("seed", 12345, "base random seed")
		outFlag   = flag.String("o", "", "also write the reports to this file")
		jsonFlag  = flag.String("json", "", "write machine-readable reports (JSON lines) to this file")
		csvFlag   = flag.String("csv", "", "write the result tables (CSV) to this file")
		listFlag  = flag.Bool("list", false, "list experiment IDs and exit")

		matrixFlag   = flag.Bool("matrix", false, "run the scenario-matrix regression harness")
		matrixOut    = flag.String("matrix-out", "artifacts/runs/latest", "directory for the matrix's run manifests")
		baselineFlag = flag.String("baseline", "", "baseline ledger directory to gate the matrix against")
	)
	flag.Parse()

	if *listFlag {
		for _, id := range harness.IDs() {
			e, _ := harness.Lookup(id)
			fmt.Printf("%-20s %s\n", id, e.Title)
		}
		return
	}

	scale, err := harness.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *matrixFlag {
		runMatrix(scale, *seedFlag, *matrixOut, *baselineFlag)
		return
	}

	var ids []string
	if *runFlag == "all" {
		ids = harness.IDs()
	} else {
		for _, id := range strings.Split(*runFlag, ",") {
			id = strings.TrimSpace(id)
			if _, ok := harness.Lookup(id); !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; -list shows the registry\n", id)
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	var out io.Writer = os.Stdout
	if *outFlag != "" {
		f, err := os.Create(*outFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}
	openOpt := func(path string) *os.File {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return f
	}
	jsonOut := openOpt(*jsonFlag)
	csvOut := openOpt(*csvFlag)

	allPass := true
	start := time.Now()
	for _, id := range ids {
		e, _ := harness.Lookup(id)
		t0 := time.Now()
		rep, err := e.Run(scale, *seedFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Fprintln(out, rep.Render())
		fmt.Fprintf(out, "(%s in %v at scale %v)\n\n", id, time.Since(t0).Round(time.Millisecond), scale)
		if jsonOut != nil {
			if err := rep.WriteJSON(jsonOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if csvOut != nil {
			if err := rep.WriteCSV(csvOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintln(csvOut)
		}
		if !rep.Passed() {
			allPass = false
		}
	}
	if jsonOut != nil {
		jsonOut.Close()
	}
	if csvOut != nil {
		csvOut.Close()
	}
	fmt.Fprintf(out, "total: %d experiment(s) in %v\n", len(ids), time.Since(start).Round(time.Second))
	if !allPass {
		fmt.Fprintln(os.Stderr, "some shape checks FAILED")
		os.Exit(1)
	}
}

// runMatrix executes the scenario matrix, writes one manifest per cell,
// and optionally gates the result against a committed baseline ledger.
func runMatrix(scale harness.Scale, seed uint64, outDir, baselineDir string) {
	start := time.Now()
	manifests, err := harness.RunMatrix(scale, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	paths, err := harness.WriteMatrix(manifests, outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("matrix: %d cell(s) at scale %v in %v\n", len(manifests), scale, time.Since(start).Round(time.Millisecond))
	for i, m := range manifests {
		fmt.Printf("  %-28s makespan %-12v efficiency %.3f  -> %s\n",
			m.ID, m.Makespan(), m.Result.Efficiency, paths[i])
	}
	if baselineDir == "" {
		return
	}

	drifts, err := harness.CompareBaseline(baselineDir, manifests)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println()
	if len(drifts) == 0 {
		fmt.Printf("baseline gate: %d cell(s) identical to %s\n", len(manifests), baselineDir)
		return
	}
	// Write the per-cell attribution reports next to the manifests so
	// CI can upload them: each drifted cell gets the full causal diff
	// against its baseline, not just the fact that it moved.
	fmt.Printf("baseline gate: %d of %d cell(s) DRIFTED from %s\n", len(drifts), len(manifests), baselineDir)
	for _, d := range drifts {
		path := filepath.Join(outDir, "diff-"+d.IDB+".txt")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		werr := d.WriteText(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(1)
		}
		fmt.Printf("  DRIFT %s: %s\n  attribution report: %s\n", d.IDB, d.Headline(), path)
	}
	os.Exit(1)
}
