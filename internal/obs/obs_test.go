package obs

import (
	"runtime"
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
	events, dropped := r.Snapshot()
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
	if r.Dropped() != 6 {
		t.Fatalf("total dropped %d, want 6", r.Dropped())
	}
}

func TestRecorderNilIsDisabled(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder claims enabled")
	}
	r.Record(0, 0, trace.EvStealSend, 1, 1) // must not panic
	if ev, dr := r.Snapshot(); ev != nil || dr != nil {
		t.Fatal("nil recorder has a snapshot")
	}
	if r.Dropped() != 0 {
		t.Fatal("nil recorder dropped events")
	}
	tr := &trace.Trace{}
	r.Attach(tr)
	if tr.Events != nil {
		t.Fatal("nil recorder attached events")
	}
}

func TestRecorderAttach(t *testing.T) {
	r := NewRecorder(1, 8)
	r.Record(0, 5, trace.EvWorkSend, 2, 16)
	tr := &trace.Trace{End: 10, Transitions: make([][]trace.Transition, 1), Sessions: make([][]trace.Session, 1)}
	r.Attach(tr)
	if tr.TotalEvents() != 1 || tr.Events[0][0].Arg != 16 {
		t.Fatalf("attach lost events: %+v", tr.Events)
	}
	if len(tr.EventsDropped) != 1 {
		t.Fatal("attach lost drop counts")
	}
}

// TestSnapshotHandsOverWithoutCopy: Snapshot returns the rings' own
// storage — rotated in place when wrapped — with the suffix, order and
// drop counts a copying snapshot had, and leaves the recorder spent.
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
		storage := &r.rings[1].buf[0]
		events, dropped := r.Snapshot()

		kept := min(tc.records, ringCap)
		if len(events[1]) != kept || dropped[1] != uint64(tc.records-kept) {
			t.Fatalf("%s: kept %d events and dropped %d, want %d and %d", tc.name, len(events[1]), dropped[1], kept, tc.records-kept)
		}
		for i, e := range events[1] {
			want := tc.records - kept + i
			if e.Arg != int64(want) || e.Time != sim.Time(want) || e.Peer != int32(want%2) || e.Kind != trace.EvStealSend {
				t.Fatalf("%s: event %d is %+v, want the run's event %d", tc.name, i, e, want)
			}
		}
		if &events[1][0] != storage {
			t.Errorf("%s: snapshot copied the ring instead of handing it over", tc.name)
		}
		if events[0] != nil || dropped[0] != 0 {
			t.Errorf("%s: silent rank has events %v, dropped %d", tc.name, events[0], dropped[0])
		}
		// Spent: the rings are empty, the eviction counts stay readable.
		if again, _ := r.Snapshot(); again[1] != nil {
			t.Errorf("%s: second snapshot still holds %d events", tc.name, len(again[1]))
		}
		if r.Dropped() != dropped[1] {
			t.Errorf("%s: Dropped() = %d after hand-over, want %d", tc.name, r.Dropped(), dropped[1])
		}
	}
}

// TestRecorderAllocBudget: recording and handing over a run may
// allocate at most 3x the bytes of the events it retains — append's
// growth on the way up and the slack it leaves, nothing more; a copying
// snapshot or a fatter record breaks the budget. The rank mix is a
// skewed steal log: most ranks short, a few long, some past the ring.
func TestRecorderAllocBudget(t *testing.T) {
	const ranks, ringCap = 256, 2048
	perRank := func(rank int) int { return 40 + (rank*rank)%3000 }

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := NewRecorder(ranks, ringCap)
	for rank := 0; rank < ranks; rank++ {
		for i, n := 0, perRank(rank); i < n; i++ {
			r.Record(rank, sim.Time(i), trace.EvStealSend, rank, int64(i))
		}
	}
	tr := &trace.Trace{Transitions: make([][]trace.Transition, ranks)}
	r.Attach(tr)
	runtime.ReadMemStats(&after)

	retained := uint64(tr.TotalEvents()) * uint64(unsafe.Sizeof(trace.Event{}))
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d events retained (%d bytes), %d bytes allocated: %.2fx", tr.TotalEvents(), retained, allocated, float64(allocated)/float64(retained))
	if tr.TotalEventsDropped() == 0 {
		t.Fatal("no ring wrapped; the budget must cover eviction too")
	}
	if allocated > 3*retained {
		t.Errorf("recorder allocated %d bytes for %d retained: over the 3x budget", allocated, retained)
	}
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
