// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig09 -scale default
//	experiments -run all -scale quick -o results.txt
//
// Each experiment prints the rows/series the paper reports, an ASCII
// rendering of the figure, and machine-checked "shape checks" asserting
// the paper's qualitative findings. Exit status is nonzero if any shape
// check fails.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"distws/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: exit status 0 when every shape check
// passes, 1 when one fails or a run or an output file cannot finish, 2
// on a usage error.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runFlag   = fs.String("run", "all", "comma-separated experiment IDs, or 'all'")
		scaleFlag = fs.String("scale", "default", "experiment scale: quick|default|full")
		seedFlag  = fs.Uint64("seed", 12345, "base random seed")
		outFlag   = fs.String("o", "", "also write the reports to this file")
		listFlag  = fs.Bool("list", false, "list experiment IDs and exit")
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

	// A failed write or close of the -o file fails the command.
	out := stdout
	if *outFlag != "" {
		f, err := os.Create(*outFlag)
		if err != nil {
			return fail(1, err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				code = fail(1, err)
			}
		}()
		out = io.MultiWriter(stdout, f)
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
