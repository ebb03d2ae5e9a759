package causal

import (
	"distws/internal/obs"
	"distws/internal/trace"
)

// TrafficRankLimit caps the rank count for which Analysis.Traffic — and
// through it the run manifest and tracetool -format json — gives the
// full rank×rank matrix: past it the document would be dominated by an
// O(ranks²) block of mostly zeros.
const TrafficRankLimit = 128

// Analysis is every post-run view of one trace behind one value. Each
// view is computed on first use and at most once, so a process that
// writes a manifest, a Chrome trace and a text report from the same run
// builds one causal graph and pairs the steals once; a caller pays only
// for the views it reads. The manifest (ledger.New), cmd/tracetool,
// cmd/uts and the blame experiment are all readers of it.
//
// Analysis is also the one place that knows which views a trace
// supports. A trace without ranks has no Blame (nil). A trace without
// an event log (HasEvents false) has the empty Graph and the single
// unattributed wait segment Build and CriticalPath give it, and no
// Pairs, Steals, Tail, Traffic or Highlights (nil or zero). Past
// TrafficRankLimit ranks Traffic is nil.
//
// The trace must not change once analysed, and an Analysis is not safe
// for concurrent use.
type Analysis struct {
	tr *trace.Trace

	blame     once[*Blame]
	graph     once[*Graph]
	path      once[Path]
	pairs     once[[]obs.StealPair]
	steals    once[obs.StealLatencyStats]
	tail      once[obs.TailStats]
	traffic   once[[][]uint64]
	occupancy once[*obs.OccupancyCurve]
	sessions  once[obs.SessionStats]
	spans     once[[]obs.HighlightSpan]
}

// once holds a view: what compute made of the trace on the first get.
type once[T any] struct {
	done bool
	v    T
}

func (o *once[T]) get(tr *trace.Trace, compute func(*trace.Trace) T) T {
	if !o.done {
		o.v, o.done = compute(tr), true
	}
	return o.v
}

// Analyze wraps a trace for analysis; nothing is computed yet. A nil
// trace (a run that collected none) is the empty trace: every view is
// absent.
func Analyze(tr *trace.Trace) *Analysis {
	if tr == nil {
		tr = &trace.Trace{}
	}
	return &Analysis{tr: tr}
}

// Trace returns the analysed trace.
func (a *Analysis) Trace() *trace.Trace { return a.tr }

// HasEvents reports whether the trace carries the protocol event log
// the causal and steal views are reconstructed from.
func (a *Analysis) HasEvents() bool { return a.tr.Events != nil }

// Blame is the idle-time blame attribution (AttributeIdle).
func (a *Analysis) Blame() *Blame {
	return a.blame.get(a.tr, func(tr *trace.Trace) *Blame {
		if tr.Ranks() == 0 {
			return nil
		}
		return AttributeIdle(tr)
	})
}

// Graph is the causal graph (Build).
func (a *Analysis) Graph() *Graph { return a.graph.get(a.tr, Build) }

// Path is the critical path through Graph (CriticalPath).
func (a *Analysis) Path() Path {
	return a.path.get(a.tr, func(*trace.Trace) Path { return CriticalPath(a.Graph()) })
}

// Pairs are the reconstructed steal transactions (obs.PairSteals).
func (a *Analysis) Pairs() []obs.StealPair { return a.pairs.get(a.tr, obs.PairSteals) }

// Steals summarizes the round-trip latencies of Pairs (obs.StealLatency).
func (a *Analysis) Steals() obs.StealLatencyStats {
	return a.steals.get(a.tr, func(*trace.Trace) obs.StealLatencyStats { return obs.StealLatency(a.Pairs()) })
}

// Tail is the termination-tail breakdown (obs.TerminationTail).
func (a *Analysis) Tail() obs.TailStats {
	return a.tail.get(a.tr, func(tr *trace.Trace) obs.TailStats {
		if !a.HasEvents() {
			return obs.TailStats{}
		}
		return obs.TerminationTail(tr, a.Pairs())
	})
}

// Traffic is the rank×rank message matrix (obs.Traffic) for documents.
func (a *Analysis) Traffic() [][]uint64 {
	if a.tr.Ranks() > TrafficRankLimit {
		return nil
	}
	return a.traffic.get(a.tr, obs.Traffic)
}

// Heatmap renders the traffic matrix as at most tiles×tiles ASCII
// tiles; aggregation makes it readable at any rank count, so it is not
// subject to TrafficRankLimit.
func (a *Analysis) Heatmap(tiles int) string {
	return obs.RenderHeatmap(a.traffic.get(a.tr, obs.Traffic), tiles)
}

// Occupancy is the workers(t) curve behind SL(x)/EL(x) (obs.Occupancy).
func (a *Analysis) Occupancy() *obs.OccupancyCurve { return a.occupancy.get(a.tr, obs.Occupancy) }

// Sessions summarizes the work-discovery sessions (obs.Sessions).
func (a *Analysis) Sessions() obs.SessionStats { return a.sessions.get(a.tr, obs.Sessions) }

// Highlights is the critical path as a Chrome-export highlight track.
func (a *Analysis) Highlights() []obs.HighlightSpan {
	return a.spans.get(a.tr, func(*trace.Trace) (spans []obs.HighlightSpan) {
		if !a.HasEvents() {
			return nil
		}
		for _, s := range a.Path().Segments {
			spans = append(spans, obs.HighlightSpan{
				Name: s.Kind.String(), Rank: s.Rank, Start: s.Start, End: s.End,
			})
		}
		return spans
	})
}
