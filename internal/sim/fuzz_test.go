package sim

import (
	"sort"
	"testing"
)

// refEvent is one scheduled event of the reference model. Events the
// fuzz input schedules have ids 0, 1, 2, …; the follow-up an event's
// handler schedules has id -(parent+1).
type refEvent struct {
	id, child int // child indexes fuzzDelays; 0 means the handler schedules nothing
	when      Time
	cancelled bool
}

// refKernel is the specification the three-tier queue is fuzzed against:
// a flat list kept in scheduling order, with the next event found by a
// stable sort on time — (when, seq) order with nothing clever in it.
type refKernel struct {
	now     Time
	pending []refEvent
}

func (r *refKernel) schedule(id int, d Duration, child int) {
	r.pending = append(r.pending, refEvent{id: id, child: child, when: r.now.Add(d)})
}

func (r *refKernel) cancel(id int) {
	for i := range r.pending {
		if r.pending[i].id == id {
			r.pending[i].cancelled = true
		}
	}
}

// next drops the cancelled events, sorts the rest and returns the
// earliest.
func (r *refKernel) next() (refEvent, bool) {
	kept := r.pending[:0]
	for _, e := range r.pending {
		if !e.cancelled {
			kept = append(kept, e)
		}
	}
	r.pending = kept
	sort.SliceStable(r.pending, func(i, j int) bool { return r.pending[i].when < r.pending[j].when })
	if len(r.pending) == 0 {
		return refEvent{}, false
	}
	return r.pending[0], true
}

// step dispatches the earliest live event due no later than last,
// appending its id to order, and runs its handler: schedule the child.
func (r *refKernel) step(last Time, order *[]int) bool {
	e, ok := r.next()
	if !ok || e.when > last {
		return false
	}
	r.pending = r.pending[1:]
	r.now = e.when
	*order = append(*order, e.id)
	if e.child != 0 {
		r.schedule(-(e.id + 1), fuzzDelays[e.child], 0)
	}
	return true
}

// fuzzDelays are the delays an op nibble selects: same-instant, inside
// one occupancy word and across words and summary words of the near
// wheel, either side of the range the frontier moves in (it trails
// now+wheelSize by less than farGrain), timer-sized pauses inside the
// far wheel, either side of the far horizon (which trails
// now+wheelSize+farSpan likewise), and beyond it.
var fuzzDelays = [16]Duration{
	0, 0, 1, 63, 64, 4096,
	wheelSize - farGrain, wheelSize - 1, wheelSize, wheelSize + 1,
	100 * Microsecond, 3 * Millisecond,
	farSpan - 1, farSpan, farSpan + wheelSize, 7 * Millisecond,
}

// FuzzKernelOrder replays a byte string as a sequence of schedule /
// cancel / Step / RunUntil / PeekTime operations on the kernel and on
// the sort-based reference model, with handlers that schedule follow-up
// events, and requires the same dispatch order, clock, queue depth and
// next-event time after every operation.
func FuzzKernelOrder(f *testing.F) {
	// An event past the frontier and, from a handler one nanosecond in, a
	// follow-up due the same instant: the first was scheduled first and
	// must run first.
	f.Add([]byte{0, 0x08, 0, 0x72, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{0x00, 0x18, 0x00, 0x08, 0x00, 0x87, 3, 0, 3, 0, 3, 0, 3, 0})
	// The far→near seam: two events wait in a far slot; the handler that
	// runs one nanosecond before them, when the frontier has passed all
	// three, schedules a third for their timestamp into the near wheel.
	f.Add([]byte{0, 0x09, 0, 0x09, 0, 0x28, 3, 0, 3, 0, 3, 0, 3, 0})
	// The heap→far seam: two events exactly on the far horizon; a handler
	// a wheel turn in, when the horizon has passed them, schedules a
	// third for their timestamp into the far wheel.
	f.Add([]byte{0, 0x0e, 0, 0x0e, 0, 0xd8, 3, 0, 3, 0, 3, 0, 3, 0})
	// A jump longer than farSpan onto two same-instant overflow events:
	// the second enters the near wheel ahead of the first's follow-up.
	f.Add([]byte{0, 0x1e, 0, 0x0e, 0, 0x0f, 3, 0, 3, 0, 3, 0, 3, 0})
	// Steal-timeout pattern: arm, cancel, re-arm in one far slot, peek
	// (the scan reclaims), run a window short of it, schedule earlier.
	f.Add([]byte{0, 0x0a, 2, 0, 0, 0x0a, 0, 0x0a, 2, 1, 5, 0, 4, 0x06, 0, 0x03, 4, 0x0b, 3, 0})
	f.Add([]byte{0, 0x0a, 0, 0x0b, 0, 0x0f, 1, 0x79, 5, 0, 4, 0x08, 2, 1, 4, 0x0f, 3, 0, 4, 0x0f})
	f.Add([]byte{0, 0x78, 0, 0x78, 0, 0x80, 2, 0, 3, 0, 0, 0x88, 5, 0, 4, 0x0a, 4, 0x0a, 4, 0x0f})
	f.Add([]byte{1, 0xfa, 1, 0xaf, 4, 0x0a, 0, 0x00, 0, 0x10, 2, 3, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024] // the model re-sorts per op: keep an input cheap
		}
		k := NewKernel()
		defer k.Release()
		ref := &refKernel{}
		var got, want []int
		var handles []Event

		var fire func(any)
		fire = func(a any) {
			e := a.(refEvent)
			got = append(got, e.id)
			if e.child != 0 {
				k.AfterArg(fuzzDelays[e.child], fire, refEvent{id: -(e.id + 1)})
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%6, ops[i+1]
			switch op {
			case 0, 1:
				id, d, child := len(handles), fuzzDelays[arg&15], int(arg>>4)
				ref.schedule(id, d, child)
				handles = append(handles, k.AfterArg(d, fire, refEvent{id: id, child: child}))
			case 2:
				if len(handles) > 0 {
					id := int(arg) % len(handles)
					k.Cancel(handles[id])
					ref.cancel(id)
				}
			case 3:
				if k.Step() != ref.step(MaxTime, &want) {
					t.Fatalf("op %d: Step disagrees with the model", i/2)
				}
			case 4:
				end := k.Now().Add(fuzzDelays[arg&15])
				if err := k.RunUntil(end); err != nil {
					t.Fatal(err)
				}
				for ref.step(end-1, &want) {
				}
			case 5:
				e, ok := ref.next()
				if tm, has := k.PeekTime(); has != ok || (ok && tm != e.when) {
					t.Fatalf("op %d: PeekTime = (%d, %v), model (%d, %v)", i/2, tm, has, e.when, ok)
				}
			}
			ref.next() // prune the cancelled
			if k.Now() != ref.now || k.Pending() != len(ref.pending) {
				t.Fatalf("op %d: clock %d with %d pending, model %d with %d",
					i/2, k.Now(), k.Pending(), ref.now, len(ref.pending))
			}
			if i%64 == 0 {
				if err := k.checkInvariants(); err != nil {
					t.Fatalf("op %d: %v", i/2, err)
				}
			}
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		for ref.step(MaxTime, &want) {
		}
		if err := k.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("kernel dispatched %d events, model %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("dispatch %d: kernel ran event %d, model %d\nkernel %v\nmodel  %v", i, got[i], want[i], got, want)
			}
		}
	})
}
