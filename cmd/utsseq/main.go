// Command utsseq enumerates a UTS tree sequentially. It is the ground
// truth the distributed traversals are verified against, and the tool
// that measured the preset sizes recorded in EXPERIMENTS.md.
//
// Usage:
//
//	utsseq -tree H-SWEEP
//	utsseq -type binomial -r 316 -b 2000 -m 2 -q 0.49 -limit 1e7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"distws/internal/uts"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: exit status 0 on success, 1 when the
// parameters do not describe a generable tree, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("utsseq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		treeFlag  = fs.String("tree", "", "tree preset name (overrides the parameter flags)")
		typeFlag  = fs.String("type", "binomial", "tree type: binomial|geometric|hybrid")
		rFlag     = fs.Int("r", 316, "root seed")
		bFlag     = fs.Float64("b", 2000, "root branching factor b0")
		mFlag     = fs.Int("m", 2, "binomial non-leaf children")
		qFlag     = fs.Float64("q", 0.49, "binomial non-leaf probability")
		dFlag     = fs.Int("d", 10, "geometric depth limit")
		cutFlag   = fs.Int("cutoff", 0, "hybrid cutoff depth")
		shapeFlag = fs.String("shape", "linear", "geometric shape: linear|expdec|cyclic|fixed")
		granFlag  = fs.Int("g", 1, "hash evaluations per child (granularity)")
		limitFlag = fs.Uint64("limit", 500_000_000, "abort after this many nodes")
		allFlag   = fs.Bool("all", false, "enumerate every preset (subject to -limit)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *allFlag {
		for _, name := range uts.PresetNames() {
			info := uts.MustPreset(name)
			if info.PaperSize > 0 {
				fmt.Fprintf(stdout, "%-10s paper-scale tree (%d nodes per Table I), skipping\n", name, info.PaperSize)
				continue
			}
			if err := enumerate(stdout, name, info.Params, *limitFlag); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		return 0
	}

	var params uts.Params
	name := "custom"
	if *treeFlag != "" {
		info, ok := uts.Preset(*treeFlag)
		if !ok {
			fmt.Fprintf(stderr, "unknown preset %q; known: %v\n", *treeFlag, uts.PresetNames())
			return 2
		}
		params = info.Params
		name = info.Name
	} else {
		switch strings.ToLower(*typeFlag) {
		case "binomial":
			params.Type = uts.Binomial
		case "geometric":
			params.Type = uts.Geometric
		case "hybrid":
			params.Type = uts.Hybrid
		default:
			fmt.Fprintf(stderr, "unknown tree type %q\n", *typeFlag)
			return 2
		}
		switch strings.ToLower(*shapeFlag) {
		case "linear":
			params.Shape = uts.ShapeLinear
		case "expdec":
			params.Shape = uts.ShapeExpDec
		case "cyclic":
			params.Shape = uts.ShapeCyclic
		case "fixed":
			params.Shape = uts.ShapeFixed
		default:
			fmt.Fprintf(stderr, "unknown shape %q\n", *shapeFlag)
			return 2
		}
		params.RootSeed = int32(*rFlag)
		params.B0 = *bFlag
		params.NonLeafBF = *mFlag
		params.NonLeafProb = *qFlag
		params.GenMax = int32(*dFlag)
		params.CutoffDepth = int32(*cutFlag)
		params.Granularity = *granFlag
	}
	if err := enumerate(stdout, name, params, *limitFlag); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

func enumerate(stdout io.Writer, name string, params uts.Params, limit uint64) error {
	start := time.Now()
	res, ok, err := uts.CountLimited(params, limit)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if !ok {
		fmt.Fprintf(stdout, "%-10s aborted after %d nodes (limit) in %v\n", name, res.Nodes, elapsed.Round(time.Millisecond))
		return nil
	}
	rate := float64(res.Nodes) / elapsed.Seconds()
	fmt.Fprintf(stdout, "%-10s nodes=%d leaves=%d depth=%d (%v, %.2fM nodes/s)\n",
		name, res.Nodes, res.Leaves, res.MaxDepth, elapsed.Round(time.Millisecond), rate/1e6)
	return nil
}
