package obs

import (
	"reflect"
	"slices"
	"testing"

	"distws/internal/trace"
)

// resetStores empties the store pool, so the next recorder starts from
// a new store.
func resetStores() {
	stores.mu.Lock()
	defer stores.mu.Unlock()
	stores.free = nil
}

// recordStream plays stream into r and finishes it at the stream's
// last round.
func recordStream(r *Recorder, stream []step) *trace.Trace {
	play(r, stream)
	return r.Finish(stream[len(stream)-1].e.Time)
}

// TestWarmRecordingAllocatesOnlyTheTrace: an events-level recording
// that follows an identical one in the same store allocates what it
// hands over — the Trace, its three arrays, their per-rank index slices
// and the eviction counts — and nothing else: no page, no activity
// scratch, no Recorder. The stream marks every rank active and idle
// and evicts at the cap, so every part of the store is exercised.
func TestWarmRecordingAllocatesOnlyTheTrace(t *testing.T) {
	resetStores()
	const ranks, ringCap = 64, 100
	stream := stealLogStream(ranks, 30, true)
	cold := recordStream(NewRecorder(ranks, ringCap), stream)
	if cold.TotalEventsDropped() == 0 || cold.TotalSessions() == 0 {
		t.Fatal("the stream must evict and fold sessions")
	}
	var warm *trace.Trace
	got := mallocsOf(func() { warm = recordStream(NewRecorder(ranks, ringCap), stream) })
	t.Logf("warm recording: %d allocations of %d bytes", got.count, got.bytes)
	if got.count > 8 {
		t.Errorf("warm recording made %d allocations (%d bytes), want at most 8", got.count, got.bytes)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("the warm recording's trace differs from the cold one's")
	}
}

// TestHandedOverTraceOutlivesItsStore: a trace Finish handed over
// shares no memory with the store. Run A's trace stays deep-equal to
// its copy after runs B and C record into A's store at other rank
// counts, caps and levels, and B and C equal the same recordings made
// in new stores.
func TestHandedOverTraceOutlivesItsStore(t *testing.T) {
	resetStores()
	ra := NewRecorder(48, 40)
	st := ra.st
	a := recordStream(ra, stealLogStream(48, 20, true))
	want := cloneTrace(a)

	runs := []struct {
		name string
		new  func() *Recorder
		n    int
	}{
		{"B: more ranks, smaller cap", func() *Recorder { return NewRecorder(96, 7) }, 96},
		{"C: fewer ranks, activity level", func() *Recorder { return NewActivityRecorder(16) }, 16},
	}
	for _, run := range runs {
		stream := stealLogStream(run.n, 25, true)
		r := run.new()
		if r.st != st {
			t.Fatalf("%s: did not take A's store", run.name)
		}
		got := recordStream(r, stream)
		resetStores()
		if fresh := recordStream(run.new(), stream); !reflect.DeepEqual(got, fresh) {
			t.Errorf("%s: recycled store's trace differs from a new store's", run.name)
		}
		resetStores()
		putStore(st)
	}
	if !reflect.DeepEqual(a, want) {
		t.Error("run A's trace changed when its store was recycled")
	}
}

// TestReturnedStoreIsEmpty: Finish gives the store back with every
// log rewound to spare pages and a zero eviction count, every scratch
// slice empty (its capacity kept), no session open and the Recorder
// zeroed, so the pool pins no trace.
func TestReturnedStoreIsEmpty(t *testing.T) {
	resetStores()
	r := NewRecorder(8, 5)
	st := r.st
	recordStream(r, stealLogStream(8, 10, true))
	stores.mu.Lock()
	kept := len(stores.free) == 1 && stores.free[0] == st
	stores.mu.Unlock()
	if !kept {
		t.Fatal("Finish did not return the store")
	}
	if !reflect.DeepEqual(st.rec, Recorder{}) {
		t.Errorf("the returned store's Recorder is %+v, want zero", st.rec)
	}
	for i := range st.logs {
		l, a := &st.logs[i], &st.act[i]
		if l.head != nil || l.tail != nil || l.n != 0 || l.dropped != 0 || l.off != 0 || l.base != 0 || l.last != 0 {
			t.Errorf("rank %d: log not rewound: %+v", i, *l)
		}
		if l.spare == nil || l.pages == 0 {
			t.Errorf("rank %d: log released its pages", i)
		}
		if len(a.transitions) != 0 || len(a.sessions) != 0 || cap(a.sessions) == 0 || a.open != (trace.Session{}) {
			t.Errorf("rank %d: activity scratch not emptied: %d transitions, %d sessions of capacity %d, open %+v",
				i, len(a.transitions), len(a.sessions), cap(a.sessions), a.open)
		}
	}
}

// TestStoresBounded: the pool keeps at most maxStores stores of at most
// storeBytes each — 64 MB in all, DESIGN.md §9 — and drops a store
// whose pages and scratch are past the byte bound.
func TestStoresBounded(t *testing.T) {
	if maxStores*storeBytes != 64<<20 {
		t.Fatalf("bounds are %d stores of %d bytes, want 64 MB in all", maxStores, storeBytes)
	}
	resetStores()
	defer resetStores()
	big := &store{logs: make([]eventLog, 1), act: make([]rankActivity, 1)}
	big.logs[0].pages = storeBytes/1024 + 1
	putStore(big)
	for range maxStores + 3 {
		putStore(&store{logs: make([]eventLog, 4), act: make([]rankActivity, 4)})
	}
	stores.mu.Lock()
	defer stores.mu.Unlock()
	if len(stores.free) != maxStores || slices.Contains(stores.free, big) {
		t.Errorf("pool holds %d stores (the oversized one among them: %v), want %d",
			len(stores.free), slices.Contains(stores.free, big), maxStores)
	}
}

// cloneTrace is a deep copy of tr that keeps nil slices nil.
func cloneTrace(tr *trace.Trace) *trace.Trace {
	c := *tr
	c.Transitions = cloneEach(tr.Transitions)
	c.Sessions = cloneEach(tr.Sessions)
	c.Events = cloneEach(tr.Events)
	c.EventsDropped = slices.Clone(tr.EventsDropped)
	return &c
}

func cloneEach[T any](xs [][]T) [][]T {
	if xs == nil {
		return nil
	}
	out := make([][]T, len(xs))
	for i, x := range xs {
		out[i] = slices.Clone(x)
	}
	return out
}
