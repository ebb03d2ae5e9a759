// Command topoviz inspects the simulated machine: it shows how a job's
// nodes are allocated on the Tofu-like torus, the distribution of
// inter-rank distances and latencies under each placement, and the
// victim-selection probability profile a given thief would use.
//
// Usage:
//
//	topoviz -ranks 1024
//	topoviz -ranks 512 -placement 8RR -thief 42
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"distws/internal/stats"
	"distws/internal/topology"
	"distws/internal/victim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: exit status 0 on success, 1 when the
// machine cannot host the job, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topoviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ranksFlag = fs.Int("ranks", 256, "number of ranks (at least 2: a thief needs a victim)")
		placeFlag = fs.String("placement", "1/N", "placement: 1/N, 8RR or 8G")
		thiefFlag = fs.Int("thief", 0, "rank whose victim-selection profile to print, in [0, ranks)")
		seedFlag  = fs.Uint64("seed", 1, "selector seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	placement, err := topology.ParsePlacement(*placeFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *ranksFlag < 2 {
		fmt.Fprintf(stderr, "-ranks %d: need at least 2 ranks\n", *ranksFlag)
		return 2
	}
	if *thiefFlag < 0 || *thiefFlag >= *ranksFlag {
		fmt.Fprintf(stderr, "-thief %d: outside [0, %d)\n", *thiefFlag, *ranksFlag)
		return 2
	}

	m := topology.KComputer()
	job, err := topology.NewJob(m, *ranksFlag, placement)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	alloc := job.Alloc

	fmt.Fprintf(stdout, "machine: %dx%dx%d cubes (%d nodes, %d racks)\n",
		m.CubesX, m.CubesY, m.CubesZ, m.Nodes(), m.CubesX*m.CubesY)
	fmt.Fprintf(stdout, "allocation: %d nodes in a %dx%dx%d cube box\n",
		alloc.Nodes(), alloc.DX, alloc.DY, alloc.DZ)
	racks := map[[2]int]bool{}
	for _, c := range alloc.NodeList {
		racks[[2]int{c.X, c.Y}] = true
	}
	fmt.Fprintf(stdout, "job: %d ranks, %v placement, spanning %d rack(s), max %d hops\n\n",
		job.Ranks(), placement, len(racks), job.MaxHops())

	// Distance and latency distribution from the thief's viewpoint.
	model := topology.DefaultLatency()
	var dists, lats []float64
	for k := 0; k < job.Ranks(); k++ {
		if k == *thiefFlag {
			continue
		}
		dists = append(dists, job.Distance(*thiefFlag, k))
		lats = append(lats, model.Latency(job, *thiefFlag, k, 0).Seconds()*1e6)
	}
	fmt.Fprintf(stdout, "from rank %d (node %v, core %d):\n", *thiefFlag, job.Coord(*thiefFlag), job.Core(*thiefFlag))
	fmt.Fprintf(stdout, "  euclidean distance: min %.2f  p50 %.2f  max %.2f\n",
		stats.Min(dists), stats.Quantile(dists, 0.5), stats.Max(dists))
	fmt.Fprintf(stdout, "  one-way latency:    min %.1fµs p50 %.1fµs max %.1fµs\n\n",
		stats.Min(lats), stats.Quantile(lats, 0.5), stats.Max(lats))

	printHistogram(stdout, "distance histogram", dists, 12)
	fmt.Fprintln(stdout)

	// Victim-selection probability mass by distance band, for the
	// uniform and the distance-skewed strategies.
	sel := victim.NewDistanceSkewed(job, *seedFlag)
	pdfer, ok := sel.(interface{ PDF(int) []float64 })
	if !ok {
		fmt.Fprintln(stderr, "selector does not expose PDF")
		return 1
	}
	pdf := pdfer.PDF(*thiefFlag)
	const bands = 6
	maxD := stats.Max(dists)
	bandP := make([]float64, bands)
	bandU := make([]float64, bands)
	uni := 1 / float64(job.Ranks()-1)
	for k := 0; k < job.Ranks(); k++ {
		if k == *thiefFlag {
			continue
		}
		b := 0
		if maxD > 0 {
			b = int(job.Distance(*thiefFlag, k) / (maxD + 1e-9) * bands)
		}
		bandP[b] += pdf[k]
		bandU[b] += uni
	}
	fmt.Fprintf(stdout, "victim-selection mass by distance band (thief %d):\n", *thiefFlag)
	fmt.Fprintf(stdout, "  %-16s %-10s %-10s %s\n", "band", "uniform", "skewed", "skew gain")
	for b := 0; b < bands; b++ {
		lo := maxD * float64(b) / bands
		hi := maxD * float64(b+1) / bands
		gain := math.NaN()
		if bandU[b] > 0 {
			gain = bandP[b] / bandU[b]
		}
		fmt.Fprintf(stdout, "  [%5.1f, %5.1f)   %-10.4f %-10.4f %.2fx\n", lo, hi, bandU[b], bandP[b], gain)
	}

	// Latency model summary for orientation.
	fmt.Fprintf(stdout, "\nlatency model levels (0-byte message):\n")
	fmt.Fprintf(stdout, "  software overhead  %v\n", model.Software)
	fmt.Fprintf(stdout, "  same node          +%v\n", model.SameNode)
	fmt.Fprintf(stdout, "  same blade         +%v\n", model.SameBlade)
	fmt.Fprintf(stdout, "  same cube          +%v\n", model.SameCube)
	fmt.Fprintf(stdout, "  per torus hop      +%v\n", model.PerHop)
	return 0
}

// printHistogram renders a simple horizontal-bar histogram.
func printHistogram(w io.Writer, title string, xs []float64, bins int) {
	lo, hi := stats.Min(xs), stats.Max(xs)
	if hi <= lo {
		hi = lo + 1
	}
	counts := stats.Histogram(xs, bins, lo, hi)
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	fmt.Fprintln(w, title+":")
	for i, c := range counts {
		bLo := lo + (hi-lo)*float64(i)/float64(bins)
		bHi := lo + (hi-lo)*float64(i+1)/float64(bins)
		bar := ""
		if maxC > 0 {
			bar = strings.Repeat("█", c*40/maxC)
		}
		fmt.Fprintf(w, "  [%6.2f, %6.2f) %5d %s\n", bLo, bHi, c, bar)
	}
}
