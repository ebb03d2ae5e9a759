package obs

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"distws/internal/trace"
)

// recordStream plays stream into r and finishes it at the stream's
// last round.
func recordStream(r *Recorder, stream []step) *trace.Trace {
	play(r, stream)
	return r.Finish(stream[len(stream)-1].e.Time)
}

// TestWarmRecordingAllocatesOnlyTheTrace: an events-level recording
// that follows an identical one in the same recorder, re-armed by
// Reset, allocates what it hands over — the Trace, its three arrays,
// their per-rank index slices and the eviction counts — and nothing
// else: no page, no transition scratch. The stream marks every rank
// active and idle and evicts at the cap, so every part of the storage
// is exercised.
func TestWarmRecordingAllocatesOnlyTheTrace(t *testing.T) {
	const ranks, ringCap = 64, 100
	stream := stealLogStream(ranks, 30, true)
	r := NewRecorder(ranks, ringCap)
	cold := recordStream(r, stream)
	if cold.TotalEventsDropped() == 0 || len(cold.Transitions[0]) == 0 {
		t.Fatal("the stream must evict and mark transitions")
	}
	var warm *trace.Trace
	got := mallocsOf(func() { warm = recordStream(r.Reset(ranks, ringCap, true), stream) })
	t.Logf("warm recording: %d allocations of %d bytes", got.count, got.bytes)
	if got.count > 8 {
		t.Errorf("warm recording made %d allocations (%d bytes), want at most 8", got.count, got.bytes)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("the warm recording's trace differs from the cold one's")
	}
}

// TestHandedOverTraceOutlivesItsStore: a trace Finish handed over
// shares no memory with the recorder's storage. Run A's trace stays
// deep-equal to its copy after runs B and C record into A's recorder,
// re-armed at other rank counts, caps and levels, and B and C equal the
// same recordings made by new recorders. C is left unfinished, as a run
// that aborts leaves it, and D re-arms over it.
func TestHandedOverTraceOutlivesItsStore(t *testing.T) {
	r := NewRecorder(48, 40)
	a := recordStream(r, stealLogStream(48, 20, true))
	want := cloneTrace(a)

	for _, run := range []struct {
		name          string
		n, cap        int
		events, abort bool
	}{
		{"B: more ranks, smaller cap", 96, 7, true, false},
		{"C: fewer ranks, activity level, unfinished", 16, 0, false, true},
		{"D: events level again", 32, 11, true, false},
	} {
		stream := stealLogStream(run.n, 25, true)
		fresh := recordStream(new(Recorder).Reset(run.n, run.cap, run.events), stream)
		r.Reset(run.n, run.cap, run.events)
		if run.abort {
			play(r, stream)
			continue
		}
		if got := recordStream(r, stream); !reflect.DeepEqual(got, fresh) {
			t.Errorf("%s: the re-armed recorder's trace differs from a new recorder's", run.name)
		}
	}
	if !reflect.DeepEqual(a, want) {
		t.Error("run A's trace changed when its recorder was re-armed")
	}
}

// TestFinishEmptiesTheRecorder: Finish leaves every log rewound to
// spare pages with a zero eviction count — also the logs past the
// run's ranks, kept from a larger earlier recording — and every
// transition slice empty with its capacity kept, so a kept recorder
// pins no trace; and Bytes counts that kept storage.
func TestFinishEmptiesTheRecorder(t *testing.T) {
	r := NewRecorder(12, 5)
	recordStream(r, stealLogStream(12, 10, true))
	r.Reset(8, 5, true)
	recordStream(r, stealLogStream(8, 10, true))
	if len(r.logs) != 8 || cap(r.logs) < 12 || len(r.trs) != 8 || cap(r.trs) < 12 {
		t.Fatalf("Finish changed the run's shape: %d logs (capacity %d), %d transition slots (capacity %d)",
			len(r.logs), cap(r.logs), len(r.trs), cap(r.trs))
	}
	pages, scratch := 0, 0
	for i := range 12 {
		l, trs := &r.logs[:12][i], r.trs[:12][i]
		if l.head != nil || l.tail != nil || l.n != 0 || l.dropped != 0 || l.off != 0 || l.base != 0 || l.last != 0 {
			t.Errorf("rank %d: log not rewound: %+v", i, *l)
		}
		if l.spare == nil || l.pages == 0 {
			t.Errorf("rank %d: log released its pages", i)
		}
		if len(trs) != 0 || cap(trs) == 0 {
			t.Errorf("rank %d: transition scratch not emptied: %d transitions of capacity %d", i, len(trs), cap(trs))
		}
		pages += l.pages
		scratch += cap(trs) * int(unsafe.Sizeof(trace.Transition{}))
	}
	want := cap(r.logs)*int(unsafe.Sizeof(eventLog{})) + cap(r.trs)*int(unsafe.Sizeof([]trace.Transition{})) +
		pages*int(unsafe.Sizeof(page{})) + scratch
	if got := r.Bytes(); got != want || pages*1024 > got {
		t.Errorf("Bytes = %d, want %d (%d pages of 1 KiB)", got, want, pages)
	}
}

// cloneTrace is a deep copy of tr that keeps nil slices nil.
func cloneTrace(tr *trace.Trace) *trace.Trace {
	c := *tr
	c.Transitions = cloneEach(tr.Transitions)
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
