package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"distws/internal/stats"
	"distws/internal/topology"
	"distws/internal/victim"
)

// topologyReport prints the -topology view of a job: its allocation on
// the Tofu-like torus, the distances and latencies seen from one thief,
// and the victim-selection mass the distance skew gives each distance
// band against uniform selection.
func topologyReport(stdout io.Writer, job *topology.Job, thief int, seed uint64) {
	alloc := job.Alloc
	m := alloc.Machine

	fmt.Fprintf(stdout, "machine: %dx%dx%d cubes (%d nodes, %d racks)\n",
		m.CubesX, m.CubesY, m.CubesZ, m.Nodes(), m.CubesX*m.CubesY)
	fmt.Fprintf(stdout, "allocation: %d nodes in a %dx%dx%d cube box\n",
		alloc.Nodes(), alloc.DX, alloc.DY, alloc.DZ)
	racks := map[[2]int]bool{}
	for _, c := range alloc.NodeList {
		racks[[2]int{c.X, c.Y}] = true
	}
	fmt.Fprintf(stdout, "job: %d ranks, %v placement, spanning %d rack(s), max %d hops\n\n",
		job.Ranks(), job.Placement, len(racks), job.MaxHops())

	// Distance and latency distribution from the thief's viewpoint.
	model := topology.DefaultLatency()
	var dists, lats []float64
	for k := 0; k < job.Ranks(); k++ {
		if k == thief {
			continue
		}
		dists = append(dists, job.Distance(thief, k))
		lats = append(lats, model.Latency(job, thief, k, 0).Seconds()*1e6)
	}
	fmt.Fprintf(stdout, "from rank %d (node %v, core %d):\n", thief, job.Coord(thief), job.Core(thief))
	fmt.Fprintf(stdout, "  euclidean distance: min %.2f  p50 %.2f  max %.2f\n",
		stats.Min(dists), stats.Quantile(dists, 0.5), stats.Max(dists))
	fmt.Fprintf(stdout, "  one-way latency:    min %.1fµs p50 %.1fµs max %.1fµs\n\n",
		stats.Min(lats), stats.Quantile(lats, 0.5), stats.Max(lats))

	printHistogram(stdout, "distance histogram", dists, 12)
	fmt.Fprintln(stdout)

	// Victim-selection probability mass by distance band, for the
	// uniform and the distance-skewed strategies.
	pdf := victim.NewDistanceSkewed(job, seed).(interface{ PDF(int) []float64 }).PDF(thief)
	const bands = 6
	maxD := stats.Max(dists)
	bandP := make([]float64, bands)
	bandU := make([]float64, bands)
	uni := 1 / float64(job.Ranks()-1)
	for k := 0; k < job.Ranks(); k++ {
		if k == thief {
			continue
		}
		b := 0
		if maxD > 0 {
			b = int(job.Distance(thief, k) / (maxD + 1e-9) * bands)
		}
		bandP[b] += pdf[k]
		bandU[b] += uni
	}
	fmt.Fprintf(stdout, "victim-selection mass by distance band (thief %d):\n", thief)
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
}

// printHistogram renders a simple horizontal-bar histogram.
func printHistogram(w io.Writer, title string, xs []float64, bins int) {
	lo, hi := stats.Min(xs), stats.Max(xs)
	if hi <= lo {
		hi = lo + 1
	}
	counts := stats.Histogram(xs, bins, lo, hi)
	maxC := slices.Max(counts)
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
