package obs

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"distws/internal/rng"
	"distws/internal/sim"
	"distws/internal/trace"
)

// analysisTrace builds a 3-rank trace with a known steal history:
//
//	rank 0 steals from 1 at t=10, work (8 nodes) arrives t=30 (success, 20ns)
//	rank 0 steals from 2 at t=50, refusal arrives t=60    (refused, 10ns)
//	rank 2 steals from 0 at t=55, gives up at t=95        (aborted, 40ns)
//
// then the termination token makes two hops (1 recv at 105, 2 recv at
// 110) and the run ends at 120.
func analysisTrace() *trace.Trace {
	return &trace.Trace{
		End:         120,
		Transitions: make([][]trace.Transition, 3),
		Sessions:    make([][]trace.Session, 3),
		Events: [][]trace.Event{
			{
				{Time: 10, Kind: trace.EvStealSend, Peer: 1},
				{Time: 30, Kind: trace.EvWorkRecv, Peer: 1, Arg: 8},
				{Time: 50, Kind: trace.EvStealSend, Peer: 2},
				{Time: 60, Kind: trace.EvNoWorkRecv, Peer: 2},
				{Time: 100, Kind: trace.EvTokenSend, Peer: 1},
			},
			{
				{Time: 20, Kind: trace.EvStealRecv, Peer: 0},
				{Time: 20, Kind: trace.EvWorkSend, Peer: 0, Arg: 8},
				{Time: 105, Kind: trace.EvTokenRecv, Peer: 0},
				{Time: 106, Kind: trace.EvTokenSend, Peer: 2},
			},
			{
				{Time: 52, Kind: trace.EvStealRecv, Peer: 0},
				{Time: 53, Kind: trace.EvNoWorkSend, Peer: 0},
				{Time: 55, Kind: trace.EvStealSend, Peer: 0},
				{Time: 95, Kind: trace.EvStealAbort, Peer: -1},
				{Time: 110, Kind: trace.EvTokenRecv, Peer: 1},
			},
		},
		EventsDropped: make([]uint64, 3),
	}
}

func TestPairSteals(t *testing.T) {
	pairs := PairSteals(analysisTrace())
	want := []StealPair{
		{Thief: 0, Victim: 1, Send: 10, End: 30, Outcome: StealSuccess, Nodes: 8},
		{Thief: 0, Victim: 2, Send: 50, End: 60, Outcome: StealRefused},
		{Thief: 2, Victim: 0, Send: 55, End: 95, Outcome: StealAborted},
	}
	if len(pairs) != len(want) {
		t.Fatalf("got %d pairs, want %d: %+v", len(pairs), len(want), pairs)
	}
	for i, p := range pairs {
		if p != want[i] {
			t.Errorf("pair %d = %+v, want %+v", i, p, want[i])
		}
	}
	if got := pairs[0].Latency(); got != 20 {
		t.Fatalf("latency = %v, want 20", got)
	}
}

func TestPairStealsEvictionAndOpenTail(t *testing.T) {
	tr := &trace.Trace{
		End:         100,
		Transitions: make([][]trace.Transition, 1),
		Sessions:    make([][]trace.Session, 1),
		Events: [][]trace.Event{{
			// First send's close event was evicted: the second send must
			// drop the orphan. The final send is still open at trace end
			// and must be dropped too.
			{Time: 10, Kind: trace.EvStealSend, Peer: 0},
			{Time: 20, Kind: trace.EvStealSend, Peer: 0},
			{Time: 30, Kind: trace.EvNoWorkRecv, Peer: 0},
			{Time: 40, Kind: trace.EvStealSend, Peer: 0},
		}},
	}
	pairs := PairSteals(tr)
	if len(pairs) != 1 || pairs[0].Send != 20 || pairs[0].Outcome != StealRefused {
		t.Fatalf("pairs = %+v, want single refused pair sent at 20", pairs)
	}
}

func TestStealLatency(t *testing.T) {
	st := StealLatency(analysisTrace())
	if st.Count != 3 || st.Success != 1 || st.Refused != 1 || st.Aborted != 1 {
		t.Fatalf("counts: %+v", st)
	}
	if st.Mean != 23 { // (20+10+40)/3, integer ns
		t.Fatalf("mean = %v, want 23", st.Mean)
	}
	if st.P50 != 20 || st.Max != 40 {
		t.Fatalf("p50 = %v max = %v", st.P50, st.Max)
	}
	if st.SuccessP50 != 20 || st.NodesMoved != 8 {
		t.Fatalf("success stats: %+v", st)
	}
	if empty := StealLatency(&trace.Trace{}); empty.Count != 0 || empty.Mean != 0 {
		t.Fatalf("empty stats: %+v", empty)
	}
	// Sends but no closed transaction: an orphan and an open tail.
	open := &trace.Trace{Events: [][]trace.Event{{{Time: 3, Kind: trace.EvStealSend}, {Time: 4, Kind: trace.EvStealSend}}}}
	if st := StealLatency(open); st != (StealLatencyStats{}) {
		t.Fatalf("unclosed sends gave stats %+v", st)
	}
}

func TestTraffic(t *testing.T) {
	m := Traffic(analysisTrace())
	want := [][]uint64{
		{0, 2, 1}, // steal-send to 1, steal-send to 2, token-send to 1
		{1, 0, 1}, // work-send to 0, token-send to 2
		{2, 0, 0}, // no-work-send + steal-send to 0
	}
	for i := range want {
		for j := range want[i] {
			if m[i][j] != want[i][j] {
				t.Fatalf("traffic[%d][%d] = %d, want %d (full: %v)", i, j, m[i][j], want[i][j], m)
			}
		}
	}
	if Traffic(&trace.Trace{Transitions: make([][]trace.Transition, 2)}) != nil {
		t.Fatal("eventless trace should yield nil traffic")
	}
}

func TestRenderHeatmap(t *testing.T) {
	m := Traffic(analysisTrace())
	out := RenderHeatmap(m, 16)
	if !strings.Contains(out, "3 ranks as 3x3 tiles") {
		t.Fatalf("header wrong:\n%s", out)
	}
	if rows := strings.Count(out, "|\n"); rows != 3 {
		t.Fatalf("want 3 heatmap rows, got %d:\n%s", rows, out)
	}
	// Aggregation path: 3 ranks into 2 tiles must not panic and must
	// conserve the hot cells.
	small := RenderHeatmap(m, 2)
	if !strings.Contains(small, "2x2 tiles") {
		t.Fatalf("aggregated header wrong:\n%s", small)
	}
	if got := RenderHeatmap(nil, 4); got != "(no traffic)\n" {
		t.Fatalf("empty heatmap = %q", got)
	}
}

func TestTerminationTail(t *testing.T) {
	tr := analysisTrace()
	st := TerminationTail(tr)
	if st.LastTransfer != 30 {
		t.Fatalf("last transfer = %v, want 30", st.LastTransfer)
	}
	if st.Duration != 90 {
		t.Fatalf("tail duration = %v, want 90", st.Duration)
	}
	if st.Fraction != 0.75 {
		t.Fatalf("tail fraction = %v, want 0.75", st.Fraction)
	}
	if st.FailedInTail != 2 {
		t.Fatalf("failed in tail = %d, want 2", st.FailedInTail)
	}
	if st.TokenHopsInTail != 2 || st.TokenHopsTotal != 2 {
		t.Fatalf("token hops: %+v", st)
	}
}

func TestPairStealsEmptyTrace(t *testing.T) {
	if pairs := PairSteals(&trace.Trace{}); len(pairs) != 0 {
		t.Fatalf("empty trace produced pairs: %+v", pairs)
	}
	// A trace with transitions but no event log behaves the same.
	tr := &trace.Trace{End: 50, Transitions: make([][]trace.Transition, 2)}
	if pairs := PairSteals(tr); len(pairs) != 0 {
		t.Fatalf("eventless trace produced pairs: %+v", pairs)
	}
	st := TerminationTail(&trace.Trace{})
	if st.Duration != 0 || st.Fraction != 0 || st.TokenHopsTotal != 0 {
		t.Fatalf("empty-trace tail = %+v", st)
	}
}

func TestPairStealsSingleRank(t *testing.T) {
	// A single rank never steals: only local quantum events appear, and
	// the scan must ignore them all.
	tr := &trace.Trace{
		End:         100,
		Transitions: make([][]trace.Transition, 1),
		Sessions:    make([][]trace.Session, 1),
		Events: [][]trace.Event{{
			{Time: 0, Kind: trace.EvQuantumStart, Peer: -1, Arg: 1},
			{Time: 90, Kind: trace.EvQuantumEnd, Peer: -1, Arg: 90},
			{Time: 100, Kind: trace.EvTerminate, Peer: -1},
		}},
	}
	if pairs := PairSteals(tr); len(pairs) != 0 {
		t.Fatalf("single-rank trace produced pairs: %+v", pairs)
	}
	st := TerminationTail(tr)
	// No transfer ever happened, so the "tail" spans the whole run.
	if st.LastTransfer != 0 || st.Duration != 100 || st.Fraction != 1 {
		t.Fatalf("single-rank tail = %+v", st)
	}
	if st.TokenHopsTotal != 0 || st.FailedInTail != 0 {
		t.Fatalf("single-rank tail = %+v", st)
	}
}

func TestPairStealsLateReplyAfterAbort(t *testing.T) {
	// Aborting steals: the thief gives up at 40, but the victim's work
	// reply was already in flight and lands at 60. The transaction ended
	// at the abort; the late delivery must not reopen or corrupt it.
	tr := &trace.Trace{
		End:         100,
		Transitions: make([][]trace.Transition, 2),
		Sessions:    make([][]trace.Session, 2),
		Events: [][]trace.Event{{
			{Time: 10, Kind: trace.EvStealSend, Peer: 1, Arg: 5},
			{Time: 40, Kind: trace.EvStealAbort, Peer: 1, Arg: 5},
			{Time: 60, Kind: trace.EvWorkLate, Peer: 1, Arg: 12},
		}, nil},
	}
	pairs := PairSteals(tr)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %+v, want exactly one", pairs)
	}
	p := pairs[0]
	if p.Outcome != StealAborted || p.Send != 10 || p.End != 40 || p.Nodes != 0 {
		t.Fatalf("pair = %+v, want abort closed at 40 with no nodes", p)
	}
	// The late reply is still the last work to arrive, so the tail
	// starts after the abort.
	st := TerminationTail(tr)
	if st.LastTransfer != 60 || st.FailedInTail != 0 {
		t.Fatalf("tail = %+v", st)
	}
}

// TestLateReplyClosesNoNewerRequest: the thief aborts request 5 at 40
// and sends request 6 at 41, then request 5's work lands at 60 — late,
// so the engine logs it as EvWorkLate — and the thief works on it.
// Request 6 is never answered: its refusal finds the thief working and
// is dropped, and request 7 opens the next search at 90. The late reply
// must not close request 6 as a success: the engine observed two round
// trips, the abort and request 7's refusal, and so must the log.
func TestLateReplyClosesNoNewerRequest(t *testing.T) {
	tr := &trace.Trace{
		End:         100,
		Transitions: make([][]trace.Transition, 2),
		Sessions:    make([][]trace.Session, 2),
		Events: [][]trace.Event{{
			{Time: 10, Kind: trace.EvStealSend, Peer: 1, Arg: 5},
			{Time: 40, Kind: trace.EvStealAbort, Peer: 1, Arg: 5},
			{Time: 41, Kind: trace.EvStealSend, Peer: 1, Arg: 6},
			{Time: 60, Kind: trace.EvWorkLate, Peer: 1, Arg: 12},
			{Time: 90, Kind: trace.EvStealSend, Peer: 1, Arg: 7},
			{Time: 95, Kind: trace.EvNoWorkRecv, Peer: 1, Arg: 7},
		}, nil},
	}
	want := []StealPair{
		{Thief: 0, Victim: 1, Send: 10, End: 40, Outcome: StealAborted},
		{Thief: 0, Victim: 1, Send: 90, End: 95, Outcome: StealRefused},
	}
	if got := PairSteals(tr); !slices.Equal(got, want) {
		t.Fatalf("pairs = %+v, want %+v", got, want)
	}
	st := StealLatency(tr)
	if st.Count != 2 || st.Success != 0 || st.Aborted != 1 || st.Refused != 1 || st.NodesMoved != 0 || st.Max != 30 {
		t.Fatalf("latency = %+v, want one abort (30) and one refusal (5)", st)
	}
}

func TestTerminationTailTransferAtEnd(t *testing.T) {
	// A transfer completing exactly at trace end leaves a zero-length
	// tail and a zero fraction; nothing divides by zero.
	tr := &trace.Trace{
		End:         80,
		Transitions: make([][]trace.Transition, 2),
		Sessions:    make([][]trace.Session, 2),
		Events: [][]trace.Event{{
			{Time: 10, Kind: trace.EvStealSend, Peer: 1},
			{Time: 80, Kind: trace.EvWorkRecv, Peer: 1, Arg: 4},
		}, nil},
	}
	st := TerminationTail(tr)
	if st.LastTransfer != 80 || st.Duration != 0 || st.Fraction != 0 {
		t.Fatalf("tail = %+v", st)
	}
}

// pairStealsStableSort is PairSteals at its plainest: one append-grown
// slice and a global sort.SliceStable on (Send, Thief). It is the
// specification PairSteals must match element for element.
func pairStealsStableSort(tr *trace.Trace) []StealPair {
	var pairs []StealPair
	for rank, es := range tr.Events {
		open := -1 // index into pairs of this rank's pending transaction
		for _, e := range es {
			switch e.Kind {
			case trace.EvStealSend:
				if open >= 0 {
					pairs = pairs[:open]
				}
				open = len(pairs)
				pairs = append(pairs, StealPair{
					Thief: rank, Victim: int(e.Peer), Send: e.Time,
				})
			case trace.EvWorkRecv:
				if open >= 0 {
					pairs[open].End = e.Time
					pairs[open].Outcome = StealSuccess
					pairs[open].Nodes = e.Arg
					open = -1
				}
			case trace.EvNoWorkRecv:
				if open >= 0 {
					pairs[open].End = e.Time
					pairs[open].Outcome = StealRefused
					open = -1
				}
			case trace.EvStealAbort:
				if open >= 0 {
					pairs[open].End = e.Time
					pairs[open].Outcome = StealAborted
					open = -1
				}
			}
		}
		if open >= 0 {
			pairs = pairs[:open]
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool {
		if pairs[i].Send != pairs[j].Send {
			return pairs[i].Send < pairs[j].Send
		}
		return pairs[i].Thief < pairs[j].Thief
	})
	return pairs
}

// randomStealLog is one rank's time-ordered log of n events drawn from
// the kinds PairSteals reads plus three it must ignore. Time advances by
// 0..2 ns a step, so sends collide across thieves, an abort is often
// followed by a retry in the same nanosecond, sends follow sends
// (orphans, as after a ring eviction) and closes arrive unopened.
func randomStealLog(r *rng.Xoshiro256, ranks, n int) []trace.Event {
	kinds := []trace.EventKind{
		trace.EvStealSend, trace.EvStealSend, trace.EvWorkRecv, trace.EvNoWorkRecv,
		trace.EvStealAbort, trace.EvStealRecv, trace.EvQuantumEnd, trace.EvWorkLate,
	}
	var es []trace.Event
	now := sim.Time(r.Intn(4))
	for i := 0; i < n; i++ {
		now += sim.Time(r.Intn(3))
		es = append(es, trace.Event{
			Time: now, Kind: kinds[r.Intn(len(kinds))],
			Peer: int32(r.Intn(ranks)), Arg: int64(r.Intn(50)),
		})
	}
	return es
}

func TestPairStealsMatchesStableSort(t *testing.T) {
	check := func(name string, events [][]trace.Event) {
		t.Helper()
		tr := &trace.Trace{Events: events}
		got, want := PairSteals(tr), pairStealsStableSort(tr)
		if len(want) == 0 {
			if got != nil {
				t.Errorf("%s: no pairs, but got %#v instead of nil", name, got)
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d pairs, the stable sort has %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: pair %d = %+v, the stable sort has %+v", name, i, got[i], want[i])
			}
		}
		if merged := pairStealsHeapMerge(tr); !slices.Equal(got, merged) {
			t.Fatalf("%s: differs from the heap merge", name)
		}
	}
	// refused is one completed transaction: a send at the given time,
	// its refusal a nanosecond later.
	refused := func(at sim.Time, victim int32) []trace.Event {
		return []trace.Event{{Time: at, Kind: trace.EvStealSend, Peer: victim}, {Time: at + 1, Kind: trace.EvNoWorkRecv, Peer: victim}}
	}

	r := rng.New(16)
	for trial := 0; trial < 200; trial++ {
		ranks := 1 + r.Intn(12)
		events := make([][]trace.Event, ranks)
		for rank := range events {
			if r.Intn(5) > 0 { // one rank in five logs nothing at all
				events[rank] = randomStealLog(r, ranks, r.Intn(60))
			}
		}
		check("random", events)
	}
	check("single rank", [][]trace.Event{randomStealLog(r, 1, 200)})
	check("one thief among idle ranks", [][]trace.Event{nil, randomStealLog(r, 3, 200), nil})
	check("a rank with sends but no pair", [][]trace.Event{
		randomStealLog(r, 2, 80),
		{{Time: 1, Kind: trace.EvStealSend}, {Time: 1, Kind: trace.EvStealSend}},
	})
	check("no sends", [][]trace.Event{{{Time: 3, Kind: trace.EvWorkRecv}, {Time: 4, Kind: trace.EvStealAbort}}})
	check("only an orphan and an open tail", [][]trace.Event{{{Time: 3, Kind: trace.EvStealSend}, {Time: 4, Kind: trace.EvStealSend}}})
	check("no event log", nil)
	check("a single pair", [][]trace.Event{nil, refused(7, 0)})
	check("ties across thieves", [][]trace.Event{refused(5, 1), refused(5, 2), refused(4, 0), refused(5, 0)})
	check("ties within a thief", [][]trace.Event{
		slices.Concat(refused(9, 1), refused(9, 2), refused(9, 3)),
		slices.Concat(refused(2, 0), refused(9, 0), refused(9, 2)),
	})
	check("a send at time 0", [][]trace.Event{refused(3, 1), refused(0, 0), refused(0, 1)})
	// Above 2^40 the sort needs its fourth and fifth digits; a narrow
	// span that high needs only the first, because digits count from the
	// earliest send.
	check("times above 2^40", [][]trace.Event{
		slices.Concat(refused(1<<40+5, 1), refused(1<<45, 2), refused(1<<62, 3)),
		slices.Concat(refused(9, 0), refused(1<<40+5, 2), refused(1<<45+1, 0)),
		refused(1<<62-1, 0),
	})
	check("a narrow span above 2^40", [][]trace.Event{refused(1<<41+3, 1), refused(1<<41, 0), refused(1<<41+3, 0)})
}

// stealStorm is a steal storm's event log: 1024 thieves, 200 completed
// transactions each, sends colliding across thieves.
func stealStorm() (tr *trace.Trace, transactions int) {
	const thieves, pairs = 1024, 200
	events := make([][]trace.Event, thieves)
	for rank := range events {
		es := make([]trace.Event, 0, 2*pairs)
		for i := 0; i < pairs; i++ {
			at := sim.Time(i*100 + rank%7)
			es = append(es,
				trace.Event{Time: at, Kind: trace.EvStealSend, Peer: int32((rank + i) % thieves), Arg: int64(i)},
				trace.Event{Time: at + 40, Kind: trace.EvNoWorkRecv, Peer: int32((rank + i) % thieves), Arg: int64(i)})
		}
		events[rank] = es
	}
	return &trace.Trace{Events: events}, thieves * pairs
}

// BenchmarkPairSteals pairs and orders stealStorm's transactions.
func BenchmarkPairSteals(b *testing.B) {
	tr, want := stealStorm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := PairSteals(tr); len(got) != want {
			b.Fatalf("%d pairs, want %d", len(got), want)
		}
	}
}

// BenchmarkStealLatency summarizes stealStorm's transactions straight
// from the log.
func BenchmarkStealLatency(b *testing.B) {
	tr, want := stealStorm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := StealLatency(tr); got.Count != want {
			b.Fatalf("%d transactions, want %d", got.Count, want)
		}
	}
}
