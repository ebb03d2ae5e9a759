// Package diff is the causal diff engine: given two run manifests
// (internal/obs/ledger) it computes structured deltas that attribute a
// makespan difference to its causes — per-segment critical-path deltas
// (compute vs steal-rtt vs transfer vs token vs wait), per-cause
// idle-blame deltas, steal success/latency shifts, and per-link
// traffic deltas — and renders them as a byte-stable text report.
//
// Exactness contract: because each manifest's critical-path segments
// partition its makespan and each rank's blame partitions its timeline
// (ledger.Validate), the per-segment deltas sum exactly to the makespan
// delta and the per-cause blame deltas sum exactly to ranks × makespan
// delta. CheckIdentities verifies both on every computed delta, and the
// diff of a run against itself is zero everywhere (tests assert both).
package diff

import (
	"fmt"

	"distws/internal/obs/ledger"
)

// SegmentNames orders the critical-path kinds in reports; it mirrors
// causal.SegmentKind order.
var SegmentNames = [5]string{"compute", "steal-rtt", "transfer", "token", "wait"}

// CauseNames orders the blame categories in reports.
var CauseNames = [5]string{"busy", "startup", "search", "in-flight", "term-tail"}

// Scalar is one compared quantity.
type Scalar struct {
	A     int64
	B     int64
	Delta int64
}

func scalar(a, b int64) Scalar { return Scalar{A: a, B: b, Delta: b - a} }

// CriticalDelta decomposes the makespan delta by critical-path segment
// kind, in causal.SegmentKind order. The segment deltas sum exactly to
// the makespan delta.
type CriticalDelta struct {
	Segments [5]Scalar
}

// Sum returns the total of the per-segment deltas.
func (c *CriticalDelta) Sum() int64 { return sumDeltas(c.Segments) }

func sumDeltas(xs [5]Scalar) (sum int64) {
	for _, x := range xs {
		sum += x.Delta
	}
	return sum
}

// BlameDelta holds the per-cause idle-blame deltas, aggregated over
// ranks (units: rank-nanoseconds), in busy/startup/search/in-flight/
// term-tail order. When both runs have the same rank count the cause
// deltas sum exactly to ranks × makespan delta.
type BlameDelta struct {
	Causes [5]Scalar
	// Ranks is the shared rank count (0 when the two runs disagree, in
	// which case the rank-scaled identity does not apply).
	Ranks int
}

// Sum returns the total of the per-cause deltas.
func (b *BlameDelta) Sum() int64 { return sumDeltas(b.Causes) }

// StealDelta summarizes protocol shifts between the runs.
type StealDelta struct {
	Requests Scalar
	Success  Scalar
	Failed   Scalar
	Aborted  Scalar
	// SuccessRateA/B are successful / total requests, in [0,1].
	SuccessRateA float64
	SuccessRateB float64
	// Latency percentiles of reconstructed round trips (ns); only
	// present when both manifests carry steal summaries.
	P50NS *Scalar
	P95NS *Scalar
	P99NS *Scalar
}

// LinkDelta is one link's traffic change.
type LinkDelta struct {
	From  int
	To    int
	A     int64
	B     int64
	Delta int64
}

// Delta is the full structured comparison of run B against run A.
type Delta struct {
	IDA string
	IDB string
	// SameSpec is true when the two runs share a config fingerprint —
	// i.e. the diff isolates a code change, not a config change.
	SameSpec bool
	// SpecChanges lists the config fields that differ, "field: a -> b",
	// in declaration order. Empty when SameSpec.
	SpecChanges []string

	Makespan Scalar
	// MakespanPct is the relative makespan change in percent (+ means B
	// is slower); 0 when A's makespan is 0.
	MakespanPct float64

	Critical *CriticalDelta
	Blame    *BlameDelta
	Steals   *StealDelta

	// Traffic is set when both manifests carry traffic matrices of
	// equal rank count; TopLinks then holds the largest per-link movers.
	Traffic  bool
	TopLinks []LinkDelta
}

// TopLinkLimit caps the per-link movers listed in a delta.
const TopLinkLimit = 10

// Compute builds the structured delta of run B against run A.
func Compute(a, b *ledger.Manifest) *Delta {
	d := &Delta{
		IDA:         a.ID,
		IDB:         b.ID,
		SameSpec:    a.Fingerprint == b.Fingerprint,
		SpecChanges: specChanges(a.Spec, b.Spec),
		Makespan:    scalar(a.Result.MakespanNS, b.Result.MakespanNS),
	}
	if a.Result.MakespanNS != 0 {
		d.MakespanPct = 100 * float64(d.Makespan.Delta) / float64(a.Result.MakespanNS)
	}

	if a.Critical != nil && b.Critical != nil {
		d.Critical = &CriticalDelta{Segments: [5]Scalar{
			scalar(a.Critical.ComputeNS, b.Critical.ComputeNS),
			scalar(a.Critical.StealRTTNS, b.Critical.StealRTTNS),
			scalar(a.Critical.TransferNS, b.Critical.TransferNS),
			scalar(a.Critical.TokenNS, b.Critical.TokenNS),
			scalar(a.Critical.WaitNS, b.Critical.WaitNS),
		}}
	}

	if a.Blame != nil && b.Blame != nil {
		bd := &BlameDelta{Causes: [5]Scalar{
			scalar(a.Blame.Total.BusyNS, b.Blame.Total.BusyNS),
			scalar(a.Blame.Total.StartupNS, b.Blame.Total.StartupNS),
			scalar(a.Blame.Total.SearchNS, b.Blame.Total.SearchNS),
			scalar(a.Blame.Total.InFlightNS, b.Blame.Total.InFlightNS),
			scalar(a.Blame.Total.TermTailNS, b.Blame.Total.TermTailNS),
		}}
		if a.Spec.Ranks == b.Spec.Ranks {
			bd.Ranks = a.Spec.Ranks
		}
		d.Blame = bd
	}

	d.Steals = stealDelta(a, b)

	if a.Traffic != nil && b.Traffic != nil && len(a.Traffic) == len(b.Traffic) {
		d.Traffic, d.TopLinks = true, topLinks(a.Traffic, b.Traffic)
	}
	return d
}

// stealDelta builds the protocol shift from the Result scalars (always
// present) plus the latency percentiles (when both runs recorded them).
func stealDelta(a, b *ledger.Manifest) *StealDelta {
	ra, rb := a.Result, b.Result
	sd := &StealDelta{
		Requests: scalar(int64(ra.StealRequests), int64(rb.StealRequests)),
		Success:  scalar(int64(ra.SuccessfulSteals), int64(rb.SuccessfulSteals)),
		Failed:   scalar(int64(ra.FailedSteals), int64(rb.FailedSteals)),
		Aborted:  scalar(int64(ra.AbortedSteals), int64(rb.AbortedSteals)),
	}
	if ra.StealRequests > 0 {
		sd.SuccessRateA = float64(ra.SuccessfulSteals) / float64(ra.StealRequests)
	}
	if rb.StealRequests > 0 {
		sd.SuccessRateB = float64(rb.SuccessfulSteals) / float64(rb.StealRequests)
	}
	if a.Steals != nil && b.Steals != nil {
		p50 := scalar(a.Steals.P50NS, b.Steals.P50NS)
		p95 := scalar(a.Steals.P95NS, b.Steals.P95NS)
		p99 := scalar(a.Steals.P99NS, b.Steals.P99NS)
		sd.P50NS, sd.P95NS, sd.P99NS = &p50, &p95, &p99
	}
	return sd
}

// topLinks returns the TopLinkLimit largest per-link movers (by
// absolute delta; ties break by from, then to, for determinism).
func topLinks(a, b [][]uint64) []LinkDelta {
	var links []LinkDelta
	for i := range a {
		for j := range a[i] {
			if av, bv := int64(a[i][j]), int64(b[i][j]); av != bv {
				links = append(links, LinkDelta{From: i, To: j, A: av, B: bv, Delta: bv - av})
			}
		}
	}
	// Selection sort of the top movers keeps the common all-zero case
	// allocation-light and the order fully deterministic.
	limit := min(TopLinkLimit, len(links))
	for i := 0; i < limit; i++ {
		best := i
		for j := i + 1; j < len(links); j++ {
			if linkLess(links[j], links[best]) {
				best = j
			}
		}
		links[i], links[best] = links[best], links[i]
	}
	return links[:limit]
}

func linkLess(x, y LinkDelta) bool {
	ax, ay := max(x.Delta, -x.Delta), max(y.Delta, -y.Delta)
	if ax != ay {
		return ax > ay
	}
	if x.From != y.From {
		return x.From < y.From
	}
	return x.To < y.To
}

// specChanges lists the differing Spec fields in declaration order.
func specChanges(a, b ledger.Spec) []string {
	var out []string
	add := func(field, av, bv string) {
		if av != bv {
			out = append(out, fmt.Sprintf("%s: %s -> %s", field, av, bv))
		}
	}
	add("tree", a.Tree, b.Tree)
	add("ranks", fmt.Sprint(a.Ranks), fmt.Sprint(b.Ranks))
	add("placement", a.Placement, b.Placement)
	add("selector", a.Selector, b.Selector)
	add("steal", a.Steal, b.Steal)
	add("chunk_size", fmt.Sprint(a.ChunkSize), fmt.Sprint(b.ChunkSize))
	add("detector", a.Detector, b.Detector)
	add("protocol", a.Protocol, b.Protocol)
	add("node_cost_ns", fmt.Sprint(a.NodeCostNS), fmt.Sprint(b.NodeCostNS))
	add("seed", fmt.Sprint(a.Seed), fmt.Sprint(b.Seed))
	add("scale", a.Scale, b.Scale)
	add("fault_plan", a.FaultPlanHash, b.FaultPlanHash)
	add("serve_hash", a.ServeHash, b.ServeHash)
	return out
}

// CheckIdentities verifies the exactness contract: the per-segment
// critical-path deltas sum to the makespan delta, and (when both runs
// share a rank count) the per-cause blame deltas sum to ranks ×
// makespan delta. A violation means a malformed manifest slipped past
// validation, so callers treat it as corruption, not as a regression.
func (d *Delta) CheckIdentities() error {
	if d.Critical != nil {
		if got, want := d.Critical.Sum(), d.Makespan.Delta; got != want {
			return fmt.Errorf("diff: critical-path deltas sum to %d ns, want makespan delta %d ns", got, want)
		}
	}
	if d.Blame != nil && d.Blame.Ranks > 0 {
		if got, want := d.Blame.Sum(), int64(d.Blame.Ranks)*d.Makespan.Delta; got != want {
			return fmt.Errorf("diff: blame deltas sum to %d rank-ns, want ranks×makespan delta %d", got, want)
		}
	}
	return nil
}

// Zero reports whether the delta is empty everywhere — the required
// outcome of diffing a run against itself.
func (d *Delta) Zero() bool {
	if d.Makespan.Delta != 0 {
		return false
	}
	if d.Critical != nil {
		for _, s := range d.Critical.Segments {
			if s.Delta != 0 {
				return false
			}
		}
	}
	if d.Blame != nil {
		for _, c := range d.Blame.Causes {
			if c.Delta != 0 {
				return false
			}
		}
	}
	if d.Steals != nil {
		for _, s := range []Scalar{d.Steals.Requests, d.Steals.Success, d.Steals.Failed, d.Steals.Aborted} {
			if s.Delta != 0 {
				return false
			}
		}
	}
	return len(d.TopLinks) == 0
}
