package obs

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"distws/internal/sim"
	"distws/internal/trace"
)

func TestRecorderRingBounds(t *testing.T) {
	r := NewRecorder(2, 4)
	for i := 0; i < 10; i++ {
		r.Record(0, sim.Time(i), trace.EvStealSend, 1, int64(i))
	}
	r.Record(1, 0, trace.EvTerminate, -1, 0)
	events, dropped := r.snapshot()
	if len(events[0]) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(events[0]))
	}
	if dropped[0] != 6 {
		t.Fatalf("dropped[0] = %d, want 6", dropped[0])
	}
	// Ring keeps the newest events in time order.
	for i, e := range events[0] {
		if want := int64(6 + i); e.Arg != want {
			t.Fatalf("event %d has arg %d, want %d", i, e.Arg, want)
		}
		if i > 0 && events[0][i-1].Time > e.Time {
			t.Fatal("snapshot out of time order")
		}
	}
	if len(events[1]) != 1 || dropped[1] != 0 {
		t.Fatalf("rank 1: %d events, %d dropped", len(events[1]), dropped[1])
	}
}

func TestRecorderNilIsDisabled(t *testing.T) {
	var r *Recorder
	r.Record(0, 0, trace.EvStealSend, 1, 1) // must not panic
	r.Mark(0, 0, trace.Active)
	if tr := r.Finish(10); tr != nil {
		t.Fatalf("nil recorder finished a trace: %+v", tr)
	}
}

// TestRecorderAttach: Finish attaches an events-level recorder's logs
// to the trace it hands over, and an activity-level one attaches none.
func TestRecorderAttach(t *testing.T) {
	r := NewRecorder(3, 8)
	r.Mark(0, 0, trace.Active)
	r.Record(0, 5, trace.EvWorkSend, 2, 16)
	tr := r.Finish(10)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.TotalEvents() != 1 || tr.Events[0][0].Arg != 16 {
		t.Fatalf("Finish lost events: %+v", tr.Events)
	}
	if len(tr.EventsDropped) != 3 {
		t.Fatal("Finish lost drop counts")
	}
	a := new(Recorder).Reset(1, 0, false)
	a.Mark(0, 0, trace.Active)
	a.Record(0, 5, trace.EvWorkSend, 2, 16)
	if tr := a.Finish(10); tr.Events != nil || tr.EventsDropped != nil || len(tr.Transitions[0]) != 1 {
		t.Fatalf("activity level kept %+v", tr)
	}
}

// TestSnapshotHandsOverWithoutCopy: snapshot decodes the logs into
// one array of exactly the retained events — plus its two per-rank
// index slices, nothing more — with the suffix, order and drop counts
// of a ring, and leaves the recorder spent.
func TestSnapshotHandsOverWithoutCopy(t *testing.T) {
	if size := unsafe.Sizeof(trace.Event{}); size != 24 {
		t.Fatalf("trace.Event is %d bytes; DESIGN.md §9, DefaultRingCap and the recorder budgets assume 24", size)
	}
	const ringCap = 8
	for _, tc := range []struct {
		name    string
		records int
	}{
		{"un-wrapped", 5},
		{"exactly full", ringCap},
		{"wrapped once", ringCap + 3},
		{"wrapped to head 0", 3 * ringCap},
		{"wrapped many times", 5*ringCap + 7},
	} {
		r := NewRecorder(2, ringCap)
		for i := 0; i < tc.records; i++ {
			r.Record(1, sim.Time(i), trace.EvStealSend, i%2, int64(i))
		}
		kept := min(tc.records, ringCap)
		want := mallocsOf(func() {
			sinkEvents = make([]trace.Event, kept)
			sinkIndex = make([][]trace.Event, 2)
			sinkDropped = make([]uint64, 2)
		})
		var events [][]trace.Event
		var dropped []uint64
		got := mallocsOf(func() { events, dropped = r.snapshot() })

		if len(events[1]) != kept || dropped[1] != uint64(tc.records-kept) {
			t.Fatalf("%s: kept %d events and dropped %d, want %d and %d", tc.name, len(events[1]), dropped[1], kept, tc.records-kept)
		}
		for i, e := range events[1] {
			want := tc.records - kept + i
			if e.Arg != int64(want) || e.Time != sim.Time(want) || e.Peer != int32(want%2) || e.Kind != trace.EvStealSend {
				t.Fatalf("%s: event %d is %+v, want the run's event %d", tc.name, i, e, want)
			}
		}
		if got != want {
			t.Errorf("%s: snapshot made %d allocations of %d bytes, want %d of %d: one array of the %d retained events and two index slices",
				tc.name, got.count, got.bytes, want.count, want.bytes, kept)
		}
		if cap(events[1]) != len(events[1]) {
			t.Errorf("%s: rank slice has capacity %d past its %d events", tc.name, cap(events[1]), len(events[1]))
		}
		if events[0] != nil || dropped[0] != 0 {
			t.Errorf("%s: silent rank has events %v, dropped %d", tc.name, events[0], dropped[0])
		}
		// Spent: the logs are empty, the eviction counts stay readable.
		again, againDropped := r.snapshot()
		if again[1] != nil {
			t.Errorf("%s: second snapshot still holds %d events", tc.name, len(again[1]))
		}
		if againDropped[1] != dropped[1] {
			t.Errorf("%s: %d dropped after hand-over, want %d", tc.name, againDropped[1], dropped[1])
		}
	}
}

var (
	sinkEvents  []trace.Event
	sinkIndex   [][]trace.Event
	sinkDropped []uint64
)

// mallocs is a heap allocation count and its bytes.
type mallocs struct{ count, bytes uint64 }

// mallocsOf measures the heap allocations f makes. The counters are
// process-wide, so it measures on one P, as testing.AllocsPerRun does,
// where another goroutine runs only if f is preempted; and it collects
// first, so that a collection, and the goroutines it wakes, is
// unlikely to start during f.
func mallocsOf(f func()) mallocs {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return mallocs{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc}
}

// ringRecorder is the recorder the delta-varint logs replaced: per-rank
// rings of trace.Event grown by append to the cap, then overwritten
// oldest-first and rotated in place at the snapshot.
// TestRecorderAllocBudget holds the logs to its allocation count.
type ringRecorder struct {
	rings []eventRing
	cap   int
}

type eventRing struct {
	buf     []trace.Event
	head    int
	dropped uint64
}

func (r *ringRecorder) record(rank int, e trace.Event) {
	g := &r.rings[rank]
	if len(g.buf) < r.cap {
		g.buf = append(g.buf, e)
		return
	}
	g.buf[g.head] = e
	g.head = (g.head + 1) % len(g.buf)
	g.dropped++
}

func (r *ringRecorder) snapshot() ([][]trace.Event, []uint64) {
	events := make([][]trace.Event, len(r.rings))
	dropped := make([]uint64, len(r.rings))
	for i := range r.rings {
		g := &r.rings[i]
		slices.Reverse(g.buf[:g.head])
		slices.Reverse(g.buf[g.head:])
		slices.Reverse(g.buf)
		events[i], dropped[i] = g.buf, g.dropped
	}
	return events, dropped
}

// TestRecorderAllocBudget: recording and handing over a run by a new
// recorder may allocate at most 1.6x the bytes of the events it retains —
// the snapshot's one array of them, the pages their records fill, and
// nothing more — and no more allocations than the append-grown rings
// it replaced; a fatter record or a per-rank side slice breaks the
// budget. The rank mix is a skewed steal log: most ranks short, a few
// long, some past the cap.
func TestRecorderAllocBudget(t *testing.T) {
	const ranks, ringCap = 256, 2048
	perRank := func(rank int) int { return 40 + (rank*rank)%3000 }
	event := func(rank, i int) trace.Event {
		return trace.Event{Time: sim.Time(i), Arg: int64(i), Peer: int32(rank), Kind: trace.EvStealSend}
	}

	var tr *trace.Trace
	got := mallocsOf(func() {
		r := NewRecorder(ranks, ringCap)
		for rank := 0; rank < ranks; rank++ {
			for i, n := 0, perRank(rank); i < n; i++ {
				e := event(rank, i)
				r.Record(rank, e.Time, e.Kind, int(e.Peer), e.Arg)
			}
		}
		tr = r.Finish(sim.Time(4000))
	})
	rings := mallocsOf(func() {
		r := &ringRecorder{rings: make([]eventRing, ranks), cap: ringCap}
		for rank := 0; rank < ranks; rank++ {
			for i, n := 0, perRank(rank); i < n; i++ {
				r.record(rank, event(rank, i))
			}
		}
		rt := &trace.Trace{Transitions: make([][]trace.Transition, ranks)}
		rt.Events, rt.EventsDropped = r.snapshot()
		sinkIndex = rt.Events
	})

	retained := uint64(tr.TotalEvents()) * uint64(unsafe.Sizeof(trace.Event{}))
	t.Logf("%d events retained (%d bytes): %d allocations of %d bytes (%.2fx); the rings made %d of %d bytes (%.2fx)",
		tr.TotalEvents(), retained, got.count, got.bytes, float64(got.bytes)/float64(retained),
		rings.count, rings.bytes, float64(rings.bytes)/float64(retained))
	if tr.TotalEventsDropped() == 0 {
		t.Fatal("no log reached its cap; the budget must cover eviction too")
	}
	if 10*got.bytes > 16*retained {
		t.Errorf("recorder allocated %d bytes for %d retained: over the 1.6x budget", got.bytes, retained)
	}
	if got.count > rings.count {
		t.Errorf("recorder made %d allocations, the rings it replaced %d", got.count, rings.count)
	}
}

// FuzzRecorderMatchesRing: for any rank count up to 4, cap and event
// stream, the logs hand over what a plain keep-newest model keeps — the
// last cap events of each rank, in order — and count what it evicts,
// before and after the snapshot too. Each input is played twice
// through one recorder: re-armed by Reset after Finish, a second
// recording at another rank count and cap must match the model as
// well, and the first snapshot's events must be unchanged. Each event takes 4
// bytes of data, reused cyclically: the rank, the kind, the time step
// (forward, back, unchanged, and jumps of ~2^62 either way) and a byte
// choosing the peer (-1 and the int32 limits among them) and the arg
// (the int64 limits among them). The seeds are
// TestSnapshotHandsOverWithoutCopy's five cases, then streams that
// fill and recycle pages and one at cap 1, which empties its one page
// on every record.
func FuzzRecorderMatchesRing(f *testing.F) {
	for _, records := range []uint16{5, 8, 11, 24, 47} {
		f.Add(uint8(1), uint16(7), records, []byte{1, 0, 0, 0})
	}
	f.Add(uint8(3), uint16(299), uint16(5000), []byte{0, 3, 0, 0, 1, 9, 5, 7, 2, 1, 1, 255, 3, 4, 2, 6, 1, 2, 3, 200})
	f.Add(uint8(0), uint16(40), uint16(3000), []byte{0, 11, 2, 5, 0, 4, 3, 10, 0, 8, 6, 15})
	f.Add(uint8(1), uint16(0), uint16(100), []byte{0, 1, 0, 3, 1, 2, 2, 0})
	f.Fuzz(func(t *testing.T, ranksIn uint8, capIn, records uint16, data []byte) {
		ranks, capacity := 1+int(ranksIn%4), 1+int(capIn)
		r := NewRecorder(ranks, capacity)
		first := matchRing(t, r, ranks, capacity, records, data)
		want := cloneEach(first)

		ranks2, capacity2 := 1+int(ranksIn+1)%4, 1+int(capIn)/3
		if capacity2 == capacity {
			capacity2++
		}
		matchRing(t, r.Reset(ranks2, capacity2, true), ranks2, capacity2, records, data)
		if !reflect.DeepEqual(first, want) {
			t.Fatal("the first hand-over changed when its recorder was re-armed")
		}
	})
}

// matchRing plays FuzzRecorderMatchesRing's stream into r, a recorder
// for ranks ranks with the given cap, holds its logs to the
// keep-newest model before and after the snapshot, and returns the
// snapshot's events once Finish has emptied the recorder.
func matchRing(t *testing.T, r *Recorder, ranks, capacity int, records uint16, data []byte) [][]trace.Event {
	t.Helper()
	model := make([][]trace.Event, ranks)
	now := sim.Time(0)
	for i := 0; i < int(records); i++ {
		var b [4]byte
		for j := range b {
			if len(data) > 0 {
				b[j] = data[(4*i+j)%len(data)]
			}
		}
		rank := int(b[0]) % ranks
		e := trace.Event{Time: now, Kind: trace.EventKind(b[1] % uint8(trace.NumEventKinds))}
		switch b[3] % 4 {
		case 0:
			e.Arg = int64(i)
		case 1:
			e.Arg = math.MinInt64
		case 2:
			e.Arg = math.MaxInt64
		case 3:
			e.Arg = -int64(i) * 0x1E3779B97F4A7C15
		}
		switch b[3] / 4 % 4 {
		case 0:
			e.Peer = int32(i % 2)
		case 1:
			e.Peer = -1
		case 2:
			e.Peer = math.MaxInt32
		case 3:
			e.Peer = math.MinInt32 + int32(b[3])
		}
		r.Record(rank, e.Time, e.Kind, int(e.Peer), e.Arg)
		model[rank] = append(model[rank], e)
		switch b[2] % 8 {
		case 0:
			now++
		case 1:
			now -= 3
		case 2:
			now += 1<<62 - 1
		case 3:
			now -= 1 << 62
		case 4:
			now += sim.Time(b[3]) << 20
		case 5:
			now = math.MaxInt64 - sim.Time(b[3])
		case 6:
			now = math.MinInt64 + sim.Time(b[3])
		}
	}

	var want uint64
	for _, es := range model {
		want += uint64(len(es) - min(len(es), capacity))
	}
	if got := loggedDrops(r); got != want {
		t.Fatalf("%d dropped before the snapshot, want %d", got, want)
	}
	events, dropped := r.snapshot()
	for rank, es := range model {
		kept := min(len(es), capacity)
		if d := uint64(len(es) - kept); dropped[rank] != d {
			t.Fatalf("rank %d: dropped %d, want %d", rank, dropped[rank], d)
		}
		if kept == 0 {
			if events[rank] != nil {
				t.Fatalf("rank %d logged nothing but holds %v", rank, events[rank])
			}
			continue
		}
		if !slices.Equal(events[rank], es[len(es)-kept:]) {
			t.Fatalf("rank %d: snapshot differs from the newest %d of %d events", rank, kept, len(es))
		}
	}
	if got := loggedDrops(r); got != want {
		t.Fatalf("%d dropped after the snapshot, want %d", got, want)
	}
	r.Finish(now)
	return events
}

// loggedDrops is the number of events r's logs evicted so far.
func loggedDrops(r *Recorder) uint64 {
	var n uint64
	for i := range r.logs {
		n += r.logs[i].dropped
	}
	return n
}

// step is one recording call of a benchmark stream: a phase mark
// when mark is set, else the event e.
type step struct {
	rank int
	e    trace.Event
	mark bool
	s    trace.State
}

// stealLogStream is a steal-log-shaped run: ranks that each open a
// quantum, send a steal request that is refused, and close the
// quantum, rounds times over — six events per rank and round. With
// marks, each rank also marks itself active at the quantum's start and
// idle at its end, so each refusal lands in an open session.
func stealLogStream(ranks, rounds int, marks bool) []step {
	stream := make([]step, 0, ranks*rounds*8)
	for i := 0; i < rounds; i++ {
		for rank := 0; rank < ranks; rank++ {
			at, victim, id := sim.Time(i*1000+rank%7), (rank+i+1)%ranks, int64(i+1)
			if marks {
				stream = append(stream, step{rank: rank, e: trace.Event{Time: at}, mark: true, s: trace.Active})
			}
			stream = append(stream,
				step{rank: rank, e: trace.Event{Time: at, Kind: trace.EvQuantumStart, Peer: -1, Arg: int64(i % 5)}},
				step{rank: rank, e: trace.Event{Time: at + 100, Kind: trace.EvQuantumEnd, Peer: -1, Arg: 4}})
			if marks {
				stream = append(stream, step{rank: rank, e: trace.Event{Time: at + 100}, mark: true, s: trace.Idle})
			}
			stream = append(stream,
				step{rank: rank, e: trace.Event{Time: at + 100, Kind: trace.EvStealSend, Peer: int32(victim), Arg: id}},
				step{rank: victim, e: trace.Event{Time: at + 400, Kind: trace.EvStealRecv, Peer: int32(rank), Arg: id}},
				step{rank: victim, e: trace.Event{Time: at + 400, Kind: trace.EvNoWorkSend, Peer: int32(rank), Arg: id}},
				step{rank: rank, e: trace.Event{Time: at + 700, Kind: trace.EvNoWorkRecv, Peer: int32(victim), Arg: id}})
		}
	}
	return stream
}

// play feeds stream to r.
func play(r *Recorder, stream []step) {
	for _, s := range stream {
		if s.mark {
			r.Mark(s.rank, s.e.Time, s.s)
		} else {
			r.Record(s.rank, s.e.Time, s.e.Kind, int(s.e.Peer), s.e.Arg)
		}
	}
}

// BenchmarkRecorderLog prices the events level's log on a
// steal-log-shaped run (stealLogStream, no marks): 1 024 ranks, 100
// rounds — 614 400 events, the order of the repository benchmark's
// observed-1k — recorded and handed over by Finish, into one recorder
// each op re-arms, as core's run store does. One op is the whole log.
func BenchmarkRecorderLog(b *testing.B) {
	const ranks, rounds = 1024, 100
	stream := stealLogStream(ranks, rounds, false)
	r := new(Recorder)
	op := func() {
		play(r.Reset(ranks, 0, true), stream)
		if tr := r.Finish(rounds * 1000); tr.TotalEvents() != len(stream) {
			b.Fatalf("%d events handed over, want %d", tr.TotalEvents(), len(stream))
		}
	}
	op() // warm-up: the pages every op reuses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(stream)), "ns/event")
}

// BenchmarkRecorderActivity prices the activity level on the same
// stream plus each rank's active and idle marks — 819 200 calls, 204 800
// transitions and 102 400 sessions, one failed attempt each — folded
// and handed over by Finish, with no log, into one recorder each op
// re-arms. One op is the whole trace.
func BenchmarkRecorderActivity(b *testing.B) {
	const ranks, rounds = 1024, 100
	stream := stealLogStream(ranks, rounds, true)
	r := new(Recorder)
	op := func() {
		play(r.Reset(ranks, 0, false), stream)
		if tr := r.Finish(rounds * 1000); tr.TotalSessions() != ranks*rounds {
			b.Fatalf("%d sessions, want %d", tr.TotalSessions(), ranks*rounds)
		}
	}
	op() // warm-up: the scratch capacity every op reuses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(stream)), "ns/call")
}

// BenchmarkRecordDisabled measures the nil-recorder fast path against
// an enabled ring: the disabled call must stay within noise of a bare
// loop so instrumented hot paths cost nothing when tracing is off.
func BenchmarkRecordDisabled(b *testing.B) {
	var r *Recorder
	for i := 0; i < b.N; i++ {
		r.Record(0, 0, trace.EvStealSend, 1, int64(i))
	}
}

func BenchmarkRecordEnabled(b *testing.B) {
	r := NewRecorder(1, DefaultRingCap)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(0, 0, trace.EvStealSend, 1, int64(i))
	}
}
