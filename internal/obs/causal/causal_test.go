package causal_test

import (
	"bytes"
	"strings"
	"testing"

	"distws/internal/core"
	"distws/internal/obs/causal"
	"distws/internal/sim"
	"distws/internal/trace"
	"distws/internal/uts"
	"distws/internal/victim"
)

// fixtureTrace builds a 3-rank run by hand with a known causal
// structure: rank 1 steals from rank 0 at a poll boundary, rank 2
// steals the migrated work from rank 1 at a poll boundary, rank 0
// steals it back from rank 2 mid-quantum (one-sided style, so the
// request flight binds), then the token circulates 0 -> 1 -> 2 -> 0.
func fixtureTrace() *trace.Trace {
	ev := func(t sim.Time, k trace.EventKind, peer int, arg int64) trace.Event {
		return trace.Event{Time: t, Kind: k, Peer: int32(peer), Arg: arg}
	}
	return &trace.Trace{
		End: 430,
		Transitions: [][]trace.Transition{
			{{Time: 0, State: trace.Active}, {Time: 300, State: trace.Idle}, {Time: 360, State: trace.Active}, {Time: 400, State: trace.Idle}},
			{{Time: 150, State: trace.Active}, {Time: 250, State: trace.Idle}},
			{{Time: 300, State: trace.Active}, {Time: 400, State: trace.Idle}},
		},
		Sessions: [][]trace.Session{nil, nil, nil},
		Events: [][]trace.Event{
			{
				ev(0, trace.EvQuantumStart, -1, 3),
				ev(100, trace.EvQuantumEnd, -1, 100),
				ev(100, trace.EvStealRecv, 1, 11),
				ev(100, trace.EvWorkSend, 1, 10),
				ev(100, trace.EvQuantumStart, -1, 2),
				ev(300, trace.EvQuantumEnd, -1, 300),
				ev(320, trace.EvStealSend, 2, 33),
				ev(360, trace.EvWorkRecv, 2, 2),
				ev(360, trace.EvQuantumStart, -1, 1),
				ev(400, trace.EvQuantumEnd, -1, 340),
				ev(400, trace.EvTokenSend, 1, 0),
				ev(430, trace.EvTokenRecv, 2, 0),
				ev(430, trace.EvTerminate, -1, 0),
			},
			{
				ev(50, trace.EvStealSend, 0, 11),
				ev(150, trace.EvWorkRecv, 0, 10),
				ev(150, trace.EvQuantumStart, -1, 1),
				ev(250, trace.EvQuantumEnd, -1, 100),
				ev(250, trace.EvStealRecv, 2, 22),
				ev(250, trace.EvWorkSend, 2, 5),
				ev(410, trace.EvTokenRecv, 0, 0),
				ev(410, trace.EvTokenSend, 2, 0),
			},
			{
				ev(200, trace.EvStealSend, 1, 22),
				ev(300, trace.EvWorkRecv, 1, 5),
				ev(300, trace.EvQuantumStart, -1, 1),
				ev(350, trace.EvStealRecv, 0, 33),
				ev(350, trace.EvWorkSend, 0, 2),
				ev(400, trace.EvQuantumEnd, -1, 105),
				ev(420, trace.EvTokenRecv, 1, 0),
				ev(420, trace.EvTokenSend, 0, 0),
			},
		},
		EventsDropped: []uint64{0, 0, 0},
	}
}

// quanta counts the graph's vertices, the compute quanta of every rank.
func quanta(g *causal.Graph) int {
	n := 0
	for _, qs := range g.Quanta {
		n += len(qs)
	}
	return n
}

func TestBuildFixtureGraph(t *testing.T) {
	g := causal.Build(fixtureTrace())
	if len(g.Transfers) != 3 {
		t.Fatalf("transfers = %d, want 3", len(g.Transfers))
	}
	want := []causal.Transfer{
		{Victim: 0, Thief: 1, Send: 100, Recv: 150, Nodes: 10, ReqSend: 50, ReqID: 11, ReqBound: false, Depth: 1, Parent: -1},
		{Victim: 1, Thief: 2, Send: 250, Recv: 300, Nodes: 5, ReqSend: 200, ReqID: 22, ReqBound: false, Depth: 2, Parent: 0},
		{Victim: 2, Thief: 0, Send: 350, Recv: 360, Nodes: 2, ReqSend: 320, ReqID: 33, ReqBound: true, Depth: 3, Parent: 1},
	}
	for i, w := range want {
		x := g.Transfers[i]
		if x.Victim != w.Victim || x.Thief != w.Thief || x.Send != w.Send || x.Recv != w.Recv ||
			x.Nodes != w.Nodes || x.ReqSend != w.ReqSend || x.ReqID != w.ReqID ||
			x.ReqBound != w.ReqBound || x.Depth != w.Depth || x.Parent != w.Parent {
			t.Errorf("transfer %d = %+v, want %+v", i, x, w)
		}
		if x.ReqSendIdx < 0 {
			t.Errorf("transfer %d: request not recovered", i)
		}
	}
	if len(g.TokenHops) != 3 {
		t.Fatalf("token hops = %d, want 3", len(g.TokenHops))
	}
	ring := [][2]int{{0, 1}, {1, 2}, {2, 0}}
	for i, h := range g.TokenHops {
		if h.From != ring[i][0] || h.To != ring[i][1] {
			t.Errorf("hop %d = %d->%d, want %d->%d", i, h.From, h.To, ring[i][0], ring[i][1])
		}
	}
	if got := quanta(g); got != 5 {
		t.Errorf("quanta = %d, want 5", got)
	}
	wantDepths := []uint64{0, 1, 1, 1}
	got := g.MigrationDepths()
	if len(got) != len(wantDepths) {
		t.Fatalf("depths = %v, want %v", got, wantDepths)
	}
	for i := range wantDepths {
		if got[i] != wantDepths[i] {
			t.Fatalf("depths = %v, want %v", got, wantDepths)
		}
	}
	if d := g.MaxDepth(); d != 3 {
		t.Errorf("max depth = %d, want 3", d)
	}
	route := g.ChainRanks(2)
	wantRoute := []int{0, 1, 2, 0}
	if len(route) != len(wantRoute) {
		t.Fatalf("chain route = %v, want %v", route, wantRoute)
	}
	for i := range wantRoute {
		if route[i] != wantRoute[i] {
			t.Fatalf("chain route = %v, want %v", route, wantRoute)
		}
	}
}

func TestCriticalPathFixture(t *testing.T) {
	g := causal.Build(fixtureTrace())
	p := causal.CriticalPath(g)
	type seg struct {
		kind       causal.SegmentKind
		rank       int
		start, end sim.Time
	}
	want := []seg{
		// The two back-to-back rank-0 quanta (0-100, 100-300) coalesce.
		{causal.SegCompute, 0, 0, 300},
		{causal.SegWait, 0, 300, 320},
		{causal.SegStealRTT, 0, 320, 350},
		{causal.SegTransfer, 0, 350, 360},
		{causal.SegCompute, 0, 360, 400},
		{causal.SegToken, 1, 400, 410},
		{causal.SegToken, 2, 410, 420},
		{causal.SegToken, 0, 420, 430},
	}
	if len(p.Segments) != len(want) {
		t.Fatalf("segments = %+v, want %d segments", p.Segments, len(want))
	}
	for i, w := range want {
		s := p.Segments[i]
		if s.Kind != w.kind || s.Rank != w.rank || s.Start != w.start || s.End != w.end {
			t.Errorf("segment %d = %+v, want %+v", i, s, w)
		}
	}
	if p.ByKind[causal.SegCompute] != 340 || p.ByKind[causal.SegStealRTT] != 30 ||
		p.ByKind[causal.SegTransfer] != 10 || p.ByKind[causal.SegToken] != 30 ||
		p.ByKind[causal.SegWait] != 20 {
		t.Errorf("ByKind = %v", p.ByKind)
	}
	var sum sim.Duration
	for _, d := range p.ByKind {
		sum += d
	}
	if sum != p.Total || p.Total != 430 {
		t.Errorf("decomposition %v does not sum to makespan: %v vs %v", p.ByKind, sum, p.Total)
	}
}

func TestBlameFixture(t *testing.T) {
	b := causal.AttributeIdle(fixtureTrace())
	want := []causal.RankBlame{
		{Busy: 340, Startup: 0, Search: 20, InFlight: 40, TermTail: 30},
		{Busy: 100, Startup: 150, Search: 0, InFlight: 0, TermTail: 180},
		{Busy: 100, Startup: 300, Search: 0, InFlight: 0, TermTail: 30},
	}
	for r, w := range want {
		if b.PerRank[r] != w {
			t.Errorf("rank %d blame = %+v, want %+v", r, b.PerRank[r], w)
		}
		if got := b.PerRank[r].Total(); got != 430 {
			t.Errorf("rank %d partition covers %v, want 430", r, got)
		}
	}
	if b.Total.Total() != 3*430 {
		t.Errorf("aggregate %v != ranks * makespan", b.Total.Total())
	}
}

// traced runs a small deterministic simulation with full event logging.
func traced(t *testing.T, mutate func(*core.Config)) *core.Result {
	t.Helper()
	cfg := core.Config{
		Tree:          uts.MustPreset("T3").Params,
		Ranks:         8,
		Selector:      victim.NewDistanceSkewed,
		Seed:          7,
		CollectEvents: true,
		EventBuffer:   1 << 20,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Events == nil {
		t.Fatal("no event log collected")
	}
	return res
}

// variants covers the protocol/selector corners whose event logs have
// different shapes (poll-boundary answers, delivery-bound answers,
// aborted steals).
func variants() map[string]func(*core.Config) {
	return map[string]func(*core.Config){
		"reference":  func(cfg *core.Config) { cfg.Selector = nil; cfg.Seed = 1 },
		"random":     func(cfg *core.Config) { cfg.Selector = victim.NewUniformRandom; cfg.Seed = 2 },
		"tofu":       nil,
		"one-sided":  func(cfg *core.Config) { cfg.Protocol = core.OneSided; cfg.Seed = 3 },
		"aborting":   func(cfg *core.Config) { cfg.StealTimeout = 5 * sim.Microsecond; cfg.Seed = 4 },
		"steal-half": func(cfg *core.Config) { cfg.Steal = core.StealHalf; cfg.Seed = 5 },
	}
}

// TestCriticalPathSumsToMakespan is the headline analytic identity in
// the style of TestEfficiencyEqualsMeanOccupancy: the extracted
// critical path is a contiguous cover of [0, makespan], so its segment
// durations sum to the makespan exactly, for every protocol variant.
func TestCriticalPathSumsToMakespan(t *testing.T) {
	for name, mutate := range variants() {
		t.Run(name, func(t *testing.T) {
			res := traced(t, mutate)
			g := causal.Build(res.Trace)
			p := causal.CriticalPath(g)
			if len(p.Segments) == 0 {
				t.Fatal("empty critical path")
			}
			var sum sim.Duration
			for _, d := range p.ByKind {
				sum += d
			}
			if sum != p.Total || p.Total != sim.Duration(res.Makespan) {
				t.Fatalf("segment kinds sum to %v, path total %v, makespan %v", sum, p.Total, res.Makespan)
			}
			// Contiguity: each segment starts where the previous ended,
			// from 0 to the makespan.
			if p.Segments[0].Start != 0 {
				t.Fatalf("path starts at %v, want 0", p.Segments[0].Start)
			}
			if last := p.Segments[len(p.Segments)-1].End; last != res.Trace.End {
				t.Fatalf("path ends at %v, want %v", last, res.Trace.End)
			}
			for i := 1; i < len(p.Segments); i++ {
				if p.Segments[i].Start != p.Segments[i-1].End {
					t.Fatalf("gap between segments %d and %d: %+v %+v", i-1, i, p.Segments[i-1], p.Segments[i])
				}
			}
			for i, s := range p.Segments {
				if s.Rank < 0 || s.Rank >= res.Ranks || s.End <= s.Start {
					t.Fatalf("malformed segment %d: %+v", i, s)
				}
			}
			if p.ByKind[causal.SegCompute] == 0 {
				t.Fatal("critical path has no compute")
			}
		})
	}
}

// TestBlamePartitionsIdleExactly: for every rank, busy plus the four
// blame categories equals the makespan, so summed over ranks the
// attribution accounts for N*T with nothing lost or double-counted.
func TestBlamePartitionsIdleExactly(t *testing.T) {
	for name, mutate := range variants() {
		t.Run(name, func(t *testing.T) {
			res := traced(t, mutate)
			b := causal.AttributeIdle(res.Trace)
			if b.Ranks() != res.Ranks {
				t.Fatalf("blame ranks = %d, want %d", b.Ranks(), res.Ranks)
			}
			for r, rb := range b.PerRank {
				if got := rb.Total(); got != sim.Duration(res.Makespan) {
					t.Fatalf("rank %d: busy %v + blamed idle %v = %v, want makespan %v",
						r, rb.Busy, rb.Idle(), got, res.Makespan)
				}
				if rb.Busy < 0 || rb.Startup < 0 || rb.Search < 0 || rb.InFlight < 0 || rb.TermTail < 0 {
					t.Fatalf("rank %d: negative category %+v", r, rb)
				}
			}
			want := sim.Duration(res.Makespan) * sim.Duration(res.Ranks)
			if got := b.Total.Total(); got != want {
				t.Fatalf("aggregate %v, want ranks*makespan %v", got, want)
			}
		})
	}
}

// TestLineageMatchesEngine cross-checks the two independent lineage
// implementations: the engine threads origin depth through live
// messages, the causal package re-derives it from the event log alone.
// With no ring evictions they must agree exactly.
func TestLineageMatchesEngine(t *testing.T) {
	for name, mutate := range variants() {
		t.Run(name, func(t *testing.T) {
			res := traced(t, mutate)
			if res.Trace.TotalEventsDropped() != 0 {
				t.Fatal("ring evictions; widen EventBuffer")
			}
			g := causal.Build(res.Trace)
			got := g.MigrationDepths()
			want := res.MigrationDepths
			if len(got) != len(want) {
				t.Fatalf("depth histogram %v, engine %v", got, want)
			}
			var transfers uint64
			for d := range want {
				if got[d] != want[d] {
					t.Fatalf("depth histogram %v, engine %v", got, want)
				}
				transfers += want[d]
			}
			if uint64(len(g.Transfers)) != transfers {
				t.Fatalf("%d transfers reconstructed, engine accepted %d", len(g.Transfers), transfers)
			}
			if g.MaxDepth() != res.MaxMigrationDepth {
				t.Fatalf("max depth %d, engine %d", g.MaxDepth(), res.MaxMigrationDepth)
			}
		})
	}
}

// TestLineageParentsAreConsistent checks the structural invariants of
// the reconstructed lineage forest on a real run.
func TestLineageParentsAreConsistent(t *testing.T) {
	res := traced(t, nil)
	g := causal.Build(res.Trace)
	for i, x := range g.Transfers {
		if x.Parent < 0 {
			if x.Depth != 1 {
				t.Fatalf("transfer %d: root at depth %d", i, x.Depth)
			}
			continue
		}
		p := g.Transfers[x.Parent]
		if p.Thief != x.Victim {
			t.Fatalf("transfer %d: parent fed rank %d, victim is %d", i, p.Thief, x.Victim)
		}
		if x.Depth != p.Depth+1 {
			t.Fatalf("transfer %d: depth %d, parent depth %d", i, x.Depth, p.Depth)
		}
		if p.Recv > x.Send {
			t.Fatalf("transfer %d: parent received at %v after child sent at %v", i, p.Recv, x.Send)
		}
		chain := g.Chain(i)
		if len(chain) != x.Depth || chain[len(chain)-1] != i {
			t.Fatalf("transfer %d: chain %v inconsistent with depth %d", i, chain, x.Depth)
		}
	}
}

func TestGraphWithoutEventLog(t *testing.T) {
	res, err := core.Run(core.Config{
		Tree:         uts.MustPreset("T3").Params,
		Ranks:        4,
		Seed:         1,
		CollectTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := causal.Build(res.Trace)
	if len(g.Transfers) != 0 || len(g.TokenHops) != 0 || quanta(g) != 0 {
		t.Fatal("graph from event-free trace must be empty")
	}
	// The critical path degenerates to one unattributed segment but the
	// identity still holds.
	p := causal.CriticalPath(g)
	if len(p.Segments) != 1 || p.Segments[0].Kind != causal.SegWait {
		t.Fatalf("path = %+v", p.Segments)
	}
	if p.ByKind[causal.SegWait] != p.Total || p.Total != sim.Duration(res.Makespan) {
		t.Fatalf("wait %v, total %v, makespan %v", p.ByKind[causal.SegWait], p.Total, res.Makespan)
	}
	// Blame works from transitions alone: interior idle all counts as
	// search, and the partition identity is preserved.
	b := causal.AttributeIdle(res.Trace)
	for r, rb := range b.PerRank {
		if rb.InFlight != 0 {
			t.Fatalf("rank %d: in-flight blame without an event log", r)
		}
		if rb.Total() != sim.Duration(res.Makespan) {
			t.Fatalf("rank %d: partition covers %v", r, rb.Total())
		}
	}
}

func TestSingleRankRun(t *testing.T) {
	res := traced(t, func(cfg *core.Config) { cfg.Ranks = 1 })
	g := causal.Build(res.Trace)
	if len(g.Transfers) != 0 {
		t.Fatalf("%d transfers on a single rank", len(g.Transfers))
	}
	p := causal.CriticalPath(g)
	var sum sim.Duration
	for _, d := range p.ByKind {
		sum += d
	}
	if sum != sim.Duration(res.Makespan) {
		t.Fatalf("path sums to %v, makespan %v", sum, res.Makespan)
	}
	if p.ByKind[causal.SegStealRTT] != 0 || p.ByKind[causal.SegTransfer] != 0 {
		t.Fatalf("steal segments on a single rank: %v", p.ByKind)
	}
	b := causal.AttributeIdle(res.Trace)
	if b.PerRank[0].Total() != sim.Duration(res.Makespan) {
		t.Fatalf("partition covers %v", b.PerRank[0].Total())
	}
}

func TestEmptyAndDegenerateTraces(t *testing.T) {
	empty := &trace.Trace{}
	if g := causal.Build(empty); len(g.Transfers) != 0 || quanta(g) != 0 {
		t.Fatal("empty trace produced a graph")
	}
	p := causal.CriticalPath(causal.Build(empty))
	if len(p.Segments) != 0 || p.Total != 0 {
		t.Fatalf("empty trace path = %+v", p)
	}
	b := causal.AttributeIdle(empty)
	if b.Ranks() != 0 || b.Total.Total() != 0 {
		t.Fatalf("empty trace blame = %+v", b)
	}

	// A rank with no transitions at all is all startup.
	idle := &trace.Trace{End: 100, Transitions: [][]trace.Transition{nil}}
	ib := causal.AttributeIdle(idle)
	if ib.PerRank[0].Startup != 100 || ib.PerRank[0].Total() != 100 {
		t.Fatalf("never-active rank blame = %+v", ib.PerRank[0])
	}
}

// TestEvictedPrefixStillMatches drops a prefix of one rank's event log
// (what ring eviction does) and checks matching degrades gracefully:
// the surviving suffix still pairs up and no identity breaks.
func TestEvictedPrefixStillMatches(t *testing.T) {
	res := traced(t, nil)
	full := causal.Build(res.Trace)
	if len(full.Transfers) < 4 {
		t.Skip("run too small to exercise eviction")
	}
	// Evict half of rank 0's log.
	tr := *res.Trace
	tr.Events = append([][]trace.Event(nil), res.Trace.Events...)
	cut := len(tr.Events[0]) / 2
	tr.Events[0] = tr.Events[0][cut:]
	tr.EventsDropped = append([]uint64(nil), res.Trace.EventsDropped...)
	tr.EventsDropped[0] += uint64(cut)

	g := causal.Build(&tr)
	if len(g.Transfers) > len(full.Transfers) {
		t.Fatalf("eviction created transfers: %d > %d", len(g.Transfers), len(full.Transfers))
	}
	for i, x := range g.Transfers {
		if x.Send >= x.Recv {
			t.Fatalf("transfer %d violates causality: %+v", i, x)
		}
	}
	p := causal.CriticalPath(g)
	var sum sim.Duration
	for _, d := range p.ByKind {
		sum += d
	}
	if sum != p.Total || p.Total != sim.Duration(res.Makespan) {
		t.Fatalf("evicted-trace path sums to %v, total %v", sum, p.Total)
	}
}

func TestTextReportsAreDeterministic(t *testing.T) {
	res := traced(t, nil)
	g := causal.Build(res.Trace)
	p := causal.CriticalPath(g)
	b := causal.AttributeIdle(res.Trace)
	render := func() string {
		var buf bytes.Buffer
		if err := causal.WriteBlameText(&buf, b); err != nil {
			t.Fatal(err)
		}
		if err := causal.WriteCriticalText(&buf, p); err != nil {
			t.Fatal(err)
		}
		if err := causal.WriteLineageText(&buf, g); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := render()
	if a != render() {
		t.Fatal("text reports are not deterministic")
	}
	for _, want := range []string{"idle-time blame", "critical path", "work lineage", "compute", "term-tail"} {
		if !strings.Contains(a, want) {
			t.Fatalf("report missing %q:\n%s", want, a)
		}
	}
}
