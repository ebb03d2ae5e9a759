package causal_test

import (
	"reflect"
	"testing"

	"distws/internal/core"
	"distws/internal/fault"
	"distws/internal/obs"
	"distws/internal/obs/causal"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/trace"
	"distws/internal/uts"
)

// analysisTraces are the shapes the availability rules split on: the
// golden Fig. 9 run (core.TestGoldenFig9's configuration), the same
// trace without its event log, no ranks at all, a crash + duplication
// run, and one rank past TrafficRankLimit.
func analysisTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	fig9 := traced(t, func(cfg *core.Config) {
		*cfg = core.Config{
			Tree: uts.MustPreset("H-TINY").Params, Ranks: 128, Placement: topology.OnePerNode,
			Selector: cfg.Selector, Steal: core.StealOne, Seed: 9,
			CollectTrace: true, CollectEvents: true,
		}
	}).Trace
	bare := *fig9
	bare.Events, bare.EventsDropped = nil, nil
	faulted := traced(t, func(cfg *core.Config) {
		cfg.Ranks = 16
		cfg.Faults = &fault.Plan{
			Seed:    99,
			Crashes: []fault.Crash{{Rank: 3, At: sim.Time(40 * sim.Microsecond)}},
			Links:   []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Dup: 0.05}},
		}
	}).Trace
	wide := traced(t, func(cfg *core.Config) { cfg.Ranks = causal.TrafficRankLimit + 1 }).Trace
	return map[string]*trace.Trace{
		"fig9": fig9, "no-events": &bare, "no-ranks": {}, "faulted": faulted, "129-ranks": wide,
	}
}

// TestAnalysisMatchesDirectCalls: every view is the direct call it
// replaces, and a view the trace does not support is the documented
// nil or zero.
func TestAnalysisMatchesDirectCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("128-rank golden run in -short mode")
	}
	for name, tr := range analysisTraces(t) {
		a := causal.Analyze(tr)
		events, ranks := tr.Events != nil, tr.Ranks()
		if a.Trace() != tr || a.HasEvents() != events {
			t.Errorf("%s: Trace/HasEvents do not describe the input", name)
		}
		check := func(view string, got, want any) {
			t.Helper()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s differs from the direct call", name, view)
			}
		}
		if ranks == 0 {
			check("Blame", a.Blame(), (*causal.Blame)(nil))
		} else {
			check("Blame", a.Blame(), causal.AttributeIdle(tr))
		}
		g := causal.Build(tr)
		check("Graph", a.Graph(), g)
		check("Path", a.Path(), causal.CriticalPath(g))
		pairs := obs.PairSteals(tr)
		check("Pairs", a.Pairs(), pairs)
		check("Steals", a.Steals(), obs.StealLatency(pairs))
		check("Occupancy", a.Occupancy(), obs.Occupancy(tr))
		check("Sessions", a.Sessions(), obs.Sessions(tr))
		check("Heatmap", a.Heatmap(8), obs.RenderHeatmap(obs.Traffic(tr), 8))
		if !events {
			if a.Pairs() != nil || a.Traffic() != nil || a.Highlights() != nil ||
				a.Steals().Count != 0 || a.Tail() != (obs.TailStats{}) {
				t.Errorf("%s: a view exists without an event log", name)
			}
			continue
		}
		check("Tail", a.Tail(), obs.TerminationTail(tr, pairs))
		if ranks > causal.TrafficRankLimit {
			check("Traffic", a.Traffic(), [][]uint64(nil))
		} else {
			check("Traffic", a.Traffic(), obs.Traffic(tr))
		}
		spans := a.Highlights()
		if len(spans) != len(a.Path().Segments) {
			t.Fatalf("%s: %d highlight spans for %d segments", name, len(spans), len(a.Path().Segments))
		}
		for i, s := range a.Path().Segments {
			check("Highlights", spans[i], obs.HighlightSpan{Name: s.Kind.String(), Rank: s.Rank, Start: s.Start, End: s.End})
		}
	}
	// A run that collected no trace analyses as the empty trace.
	if a := causal.Analyze(nil); a.Blame() != nil || a.HasEvents() || a.Trace().Ranks() != 0 {
		t.Error("Analyze(nil) is not the analysis of the empty trace")
	}
}

// TestAnalysisMemoizes: asking twice computes once.
func TestAnalysisMemoizes(t *testing.T) {
	a := causal.Analyze(traced(t, nil).Trace)
	if a.Graph() != a.Graph() || a.Blame() != a.Blame() || a.Occupancy() != a.Occupancy() {
		t.Error("a pointer view was rebuilt on the second call")
	}
	// Slice views share a backing array across calls.
	if &a.Pairs()[0] != &a.Pairs()[0] || &a.Traffic()[0] != &a.Traffic()[0] ||
		&a.Path().Segments[0] != &a.Path().Segments[0] || &a.Highlights()[0] != &a.Highlights()[0] {
		t.Error("a slice view was rebuilt on the second call")
	}
}
