package diff

import (
	"fmt"
	"io"

	"distws/internal/obs"
	"distws/internal/obs/ledger"
)

// Band is one tolerance band: an observed value passes against a
// baseline when |got-base| <= Abs + Rel*|base|. The zero band demands
// exact equality. One comparator serves two consumers: the
// scenario-matrix gate (manifest metrics) and the benchmark baseline
// gate (BENCH_sim.json entries).
type Band struct {
	// Rel is the allowed relative deviation (0.05 = ±5% of |base|).
	Rel float64 `json:"rel,omitempty"`
	// Abs is the allowed absolute deviation, in the metric's own unit.
	Abs float64 `json:"abs,omitempty"`
}

// Check reports whether got is within the band around base.
func (b Band) Check(base, got float64) bool {
	dev := got - base
	if dev < 0 {
		dev = -dev
	}
	scale := base
	if scale < 0 {
		scale = -scale
	}
	return dev <= b.Abs+b.Rel*scale
}

// Violation is one metric outside its band.
type Violation struct {
	// Name identifies the metric ("cell-id/makespan_ns").
	Name string  `json:"name"`
	Base float64 `json:"base"`
	Got  float64 `json:"got"`
	Band Band    `json:"band"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %.6g -> %.6g outside band (rel %.3g, abs %.3g)",
		v.Name, v.Base, v.Got, v.Band.Rel, v.Band.Abs)
}

// Gate accumulates band checks; order of Check calls fixes the order of
// reported violations, so callers checking in a deterministic order get
// deterministic reports.
type Gate struct {
	Checked    int
	Violations []Violation
}

// Check records a violation when got falls outside band around base.
func (g *Gate) Check(name string, band Band, base, got float64) {
	g.Checked++
	if !band.Check(base, got) {
		g.Violations = append(g.Violations, Violation{Name: name, Base: base, Got: got, Band: band})
	}
}

// OK reports whether every checked metric stayed in band.
func (g *Gate) OK() bool { return len(g.Violations) == 0 }

// Report writes one line per violation (or a pass summary).
func (g *Gate) Report(w io.Writer) error {
	bw := &obs.ErrWriter{W: w}
	if g.OK() {
		bw.Printf("tolerance gate: %d metric(s) checked, all in band\n", g.Checked)
		return bw.Err
	}
	bw.Printf("tolerance gate: %d of %d metric(s) OUT OF BAND\n", len(g.Violations), g.Checked)
	for _, v := range g.Violations {
		bw.Printf("  FAIL %s\n", v)
	}
	return bw.Err
}

// Tolerances is the per-metric band policy for manifest comparisons.
// The simulator is deterministic, so a regenerated baseline matches
// exactly; the bands exist to absorb small deliberate behaviour drifts
// (a retuned constant, a protocol tweak) without a rebaseline, while
// still catching real regressions.
type Tolerances struct {
	// Makespan bounds the relative makespan drift per cell.
	Makespan Band
	// Nodes bounds tree-size drift (identical trees ⇒ exact; faulted
	// cells complete fewer nodes, so the band is relative).
	Nodes Band
	// Efficiency bounds absolute efficiency drift.
	Efficiency Band
	// StealSuccessRate bounds the absolute shift of successful/total.
	StealSuccessRate Band
	// CriticalShare bounds the absolute shift of each critical-path
	// segment's share of the makespan (0.05 = five points).
	CriticalShare Band
	// BlameShare bounds the absolute shift of each blame cause's share
	// of total rank-time.
	BlameShare Band
	// LostNodes bounds fault-cell work-loss drift.
	LostNodes Band
	// SerializedShare bounds the absolute shift of the parallel kernel's
	// serialized-window share (profiled cells only).
	SerializedShare Band
	// Goodput bounds the relative drift of each tenant's SLO-met
	// goodput (serving cells only).
	Goodput Band
	// SojournP95 bounds the relative drift of each tenant's p95 sojourn
	// latency (serving cells only).
	SojournP95 Band
	// Jain bounds the absolute shift of the serving fairness index.
	Jain Band
}

// DefaultTolerances is the matrix gate's committed policy (documented
// in DESIGN.md §12).
func DefaultTolerances() Tolerances {
	return Tolerances{
		Makespan:         Band{Rel: 0.05},
		Nodes:            Band{Rel: 0.01},
		Efficiency:       Band{Abs: 0.02},
		StealSuccessRate: Band{Abs: 0.05},
		CriticalShare:    Band{Abs: 0.05},
		BlameShare:       Band{Abs: 0.05},
		LostNodes:        Band{Rel: 0.25, Abs: 64},
		SerializedShare:  Band{Abs: 0.05},
		Goodput:          Band{Rel: 0.05, Abs: 1},
		SojournP95:       Band{Rel: 0.10},
		Jain:             Band{Abs: 0.05},
	}
}

// GateManifests checks got against base under the tolerance policy,
// recording violations into g under "id/metric" names. Metrics are
// checked in a fixed order so reports are deterministic.
func GateManifests(g *Gate, id string, base, got *ledger.Manifest, t Tolerances) {
	g.Check(id+"/makespan_ns", t.Makespan, float64(base.Result.MakespanNS), float64(got.Result.MakespanNS))
	g.Check(id+"/nodes", t.Nodes, float64(base.Result.Nodes), float64(got.Result.Nodes))
	g.Check(id+"/efficiency", t.Efficiency, base.Result.Efficiency, got.Result.Efficiency)

	rate := func(m *ledger.Manifest) float64 {
		if m.Result.StealRequests == 0 {
			return 0
		}
		return float64(m.Result.SuccessfulSteals) / float64(m.Result.StealRequests)
	}
	g.Check(id+"/steal_success_rate", t.StealSuccessRate, rate(base), rate(got))

	if base.Critical != nil && got.Critical != nil {
		cshare := func(ns, makespan int64) float64 {
			if makespan == 0 {
				return 0
			}
			return float64(ns) / float64(makespan)
		}
		bc, gc := base.Critical, got.Critical
		bm, gm := base.Result.MakespanNS, got.Result.MakespanNS
		for i, pair := range [][2]int64{
			{bc.ComputeNS, gc.ComputeNS},
			{bc.StealRTTNS, gc.StealRTTNS},
			{bc.TransferNS, gc.TransferNS},
			{bc.TokenNS, gc.TokenNS},
			{bc.WaitNS, gc.WaitNS},
		} {
			g.Check(id+"/critical_share_"+SegmentNames[i], t.CriticalShare,
				cshare(pair[0], bm), cshare(pair[1], gm))
		}
	}

	if base.Blame != nil && got.Blame != nil {
		bshare := func(e ledger.BlameEntry, ns int64) float64 {
			if e.TotalNS() == 0 {
				return 0
			}
			return float64(ns) / float64(e.TotalNS())
		}
		bb, gb := base.Blame.Total, got.Blame.Total
		for i, pair := range [][2]float64{
			{bshare(bb, bb.BusyNS), bshare(gb, gb.BusyNS)},
			{bshare(bb, bb.StartupNS), bshare(gb, gb.StartupNS)},
			{bshare(bb, bb.SearchNS), bshare(gb, gb.SearchNS)},
			{bshare(bb, bb.InFlightNS), bshare(gb, gb.InFlightNS)},
			{bshare(bb, bb.TermTailNS), bshare(gb, gb.TermTailNS)},
		} {
			g.Check(id+"/blame_share_"+CauseNames[i], t.BlameShare, pair[0], pair[1])
		}
	}

	if base.Result.LostNodes != 0 || got.Result.LostNodes != 0 {
		g.Check(id+"/lost_nodes", t.LostNodes, float64(base.Result.LostNodes), float64(got.Result.LostNodes))
	}

	if base.Par != nil && got.Par != nil {
		pshare := func(p *ledger.ParSummary) float64 {
			if p.Windows == 0 {
				return 0
			}
			return float64(p.Serialized) / float64(p.Windows)
		}
		g.Check(id+"/par_serialized_share", t.SerializedShare, pshare(base.Par), pshare(got.Par))
	}

	if base.Serve != nil && got.Serve != nil {
		// The admission counts are exact (zero band): the compiled
		// schedule is a pure function of (spec, seed), so any drift is a
		// determinism break, not tuning noise.
		g.Check(id+"/serve_arrived", Band{}, float64(base.Serve.Arrived), float64(got.Serve.Arrived))
		g.Check(id+"/serve_admitted", Band{}, float64(base.Serve.Admitted), float64(got.Serve.Admitted))
		g.Check(id+"/serve_jain", t.Jain, base.Serve.Jain, got.Serve.Jain)
		n := len(base.Serve.Tenants)
		if len(got.Serve.Tenants) < n {
			n = len(got.Serve.Tenants)
		}
		for i := 0; i < n; i++ {
			bt, gt := &base.Serve.Tenants[i], &got.Serve.Tenants[i]
			g.Check(id+"/serve_goodput_"+bt.Name, t.Goodput, bt.GoodputPerSec, gt.GoodputPerSec)
			g.Check(id+"/serve_sojourn_p95_"+bt.Name, t.SojournP95,
				float64(bt.SojournP95NS), float64(gt.SojournP95NS))
		}
	}
}
