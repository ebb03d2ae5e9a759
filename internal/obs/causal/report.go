package causal

import (
	"io"

	"distws/internal/obs"
	"distws/internal/sim"
)

// pct renders part as a percentage of whole, safe on whole == 0.
func pct(part, whole sim.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// Share returns segment kind k's percentage of the critical path.
func (p Path) Share(k SegmentKind) float64 { return pct(p.ByKind[k], p.Total) }

// WriteBlameText renders the blame attribution as a deterministic
// fixed-width table: one row per rank, then the aggregate with each
// category's share of total rank-time (ranks × makespan). A nil Blame
// (a trace without ranks) renders as the table of no ranks.
func WriteBlameText(w io.Writer, b *Blame) error {
	if b == nil {
		b = &Blame{}
	}
	bw := &obs.ErrWriter{W: w}
	bw.Printf("idle-time blame: %d ranks, makespan %s\n", b.Ranks(), sim.Duration(b.End))
	bw.Printf("%6s %14s %14s %14s %14s %14s\n",
		"rank", "busy", "startup", "search", "in-flight", "term-tail")
	for r, rb := range b.PerRank {
		bw.Printf("%6d %14s %14s %14s %14s %14s\n",
			r, rb.Busy, rb.Startup, rb.Search, rb.InFlight, rb.TermTail)
	}
	tot := b.Total
	whole := tot.Total()
	bw.Printf("%6s %13.1f%% %13.1f%% %13.1f%% %13.1f%% %13.1f%%\n",
		"all",
		pct(tot.Busy, whole), pct(tot.Startup, whole), pct(tot.Search, whole),
		pct(tot.InFlight, whole), pct(tot.TermTail, whole))
	return bw.Err
}

// criticalSegmentLimit caps the per-segment listing in the text report;
// the decomposition table above it always covers the whole path.
const criticalSegmentLimit = 64

// WriteCriticalText renders the critical path: the makespan
// decomposition by segment kind, then the segment chain (capped, the
// cap is reported).
func WriteCriticalText(w io.Writer, p Path) error {
	bw := &obs.ErrWriter{W: w}
	bw.Printf("critical path: %d segments, makespan %s\n", len(p.Segments), p.Total)
	for k := SegmentKind(0); k < NumSegmentKinds; k++ {
		bw.Printf("%12s %14s %6.1f%%\n", k, p.ByKind[k], p.Share(k))
	}
	n := len(p.Segments)
	shown := min(n, criticalSegmentLimit)
	for _, s := range p.Segments[:shown] {
		bw.Printf("  %-10s rank %4d  [%s, %s)  %s\n",
			s.Kind, s.Rank, sim.Duration(s.Start), sim.Duration(s.End), s.Duration())
	}
	if n > shown {
		bw.Printf("  ... %d more segments\n", n-shown)
	}
	return bw.Err
}

// WriteLineageText renders the work-lineage summary: the
// migration-depth histogram and the route of the deepest steal chain.
func WriteLineageText(w io.Writer, g *Graph) error {
	bw := &obs.ErrWriter{W: w}
	depths := g.MigrationDepths()
	bw.Printf("work lineage: %d transfers, max migration depth %d\n", len(g.Transfers), g.MaxDepth())
	for d := 1; d < len(depths); d++ {
		bw.Printf("%9s %2d %8d\n", "depth", d, depths[d])
	}
	if route := g.DeepestRoute(); route != nil {
		bw.Printf("deepest chain:")
		for i, r := range route {
			sep := " -> "
			if i == 0 {
				sep = " "
			}
			bw.Printf("%s%d", sep, r)
		}
		bw.Printf("\n")
	}
	return bw.Err
}

// DeepestRoute returns the rank route (ChainRanks) of the first
// transfer at MaxDepth, nil with no transfers. First-in-sorted-order
// makes the choice deterministic.
func (g *Graph) DeepestRoute() []int {
	best, depth := -1, 0
	for i, t := range g.Transfers {
		if t.Depth > depth {
			best, depth = i, t.Depth
		}
	}
	if best < 0 {
		return nil
	}
	return g.ChainRanks(best)
}

// Publish exports the causal analyses into a metrics registry as
// aggregate counters and a migration-depth histogram. It is called
// after a run completes, never from the engine hot path, so the
// engine's own metric set — and the golden traced-run exposition — is
// unchanged. All arguments are optional: nil graph/blame or a
// zero-value path publish nothing for the missing part.
func Publish(reg *obs.Registry, g *Graph, p Path, b *Blame) {
	if reg == nil {
		return
	}
	if g != nil {
		reg.Counter("causal_transfers_total").Add(uint64(len(g.Transfers)))
		reg.Counter("causal_token_hops_total").Add(uint64(len(g.TokenHops)))
		reg.Counter("causal_quanta_total").Add(uint64(g.QuantaCount()))
		h := reg.Histogram("causal_migration_depth")
		for _, t := range g.Transfers {
			h.Observe(int64(t.Depth))
		}
	}
	if p.Total > 0 {
		reg.Counter("causal_critical_compute_ns").Add(uint64(p.ByKind[SegCompute]))
		reg.Counter("causal_critical_steal_rtt_ns").Add(uint64(p.ByKind[SegStealRTT]))
		reg.Counter("causal_critical_transfer_ns").Add(uint64(p.ByKind[SegTransfer]))
		reg.Counter("causal_critical_token_ns").Add(uint64(p.ByKind[SegToken]))
		reg.Counter("causal_critical_wait_ns").Add(uint64(p.ByKind[SegWait]))
	}
	if b != nil {
		reg.Counter("causal_busy_ns_total").Add(uint64(b.Total.Busy))
		reg.Counter("causal_blame_startup_ns_total").Add(uint64(b.Total.Startup))
		reg.Counter("causal_blame_search_ns_total").Add(uint64(b.Total.Search))
		reg.Counter("causal_blame_inflight_ns_total").Add(uint64(b.Total.InFlight))
		reg.Counter("causal_blame_termtail_ns_total").Add(uint64(b.Total.TermTail))
	}
}
