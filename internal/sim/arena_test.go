package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// checkInvariants verifies the structural invariants of the two-tier
// queue: every wheel chain is one timestamp inside the window in seq
// order, the occupancy bitmap and its summary agree with the slot
// heads, the overflow heap is ordered and holds only events at or past
// the horizon, and wheel + overflow + free list account for every arena
// slot exactly once. It must hold between any two kernel operations.
func (k *Kernel) checkInvariants() error {
	seen := make(map[int32]bool, len(k.arena))
	liveCount := 0
	visit := func(idx int32, where string) error {
		if idx <= 0 || int(idx) >= len(k.arena) {
			return fmt.Errorf("%s: index %d outside the arena", where, idx)
		}
		if seen[idx] {
			return fmt.Errorf("%s: slot %d is linked twice", where, idx)
		}
		seen[idx] = true
		return nil
	}
	queued := func(idx int32, where string) error {
		if err := visit(idx, where); err != nil {
			return err
		}
		if !k.arena[idx].cancelled {
			liveCount++
		}
		return nil
	}

	inWheel := 0
	for s := range k.slots {
		sl := k.slots[s]
		occupied := k.occ[s>>6]&(1<<(uint(s)&63)) != 0
		if occupied != (sl.head != 0) {
			return fmt.Errorf("wheel slot %d: occupancy bit %v, head %d", s, occupied, sl.head)
		}
		var prev *eventNode
		last := int32(0)
		for idx := sl.head; idx != 0; idx = k.arena[idx].next {
			if err := queued(idx, fmt.Sprintf("wheel slot %d", s)); err != nil {
				return err
			}
			n := &k.arena[idx]
			if int(uint(n.when)&wheelMask) != s {
				return fmt.Errorf("wheel slot %d holds an event due at %d", s, n.when)
			}
			if n.when < k.now || n.when-k.now >= wheelSize {
				return fmt.Errorf("wheel event at %d outside the window [%d, %d)", n.when, k.now, k.now+wheelSize)
			}
			if prev != nil && (n.when != prev.when || n.seq <= prev.seq) {
				return fmt.Errorf("wheel slot %d chain not FIFO: (%d,%d) after (%d,%d)",
					s, n.when, n.seq, prev.when, prev.seq)
			}
			prev, last = n, idx
			inWheel++
		}
		if sl.head != 0 && sl.tail != last {
			return fmt.Errorf("wheel slot %d: tail %d, chain ends at %d", s, sl.tail, last)
		}
	}
	for w := range k.occ {
		summarized := k.sum[w>>6]&(1<<(uint(w)&63)) != 0
		if summarized != (k.occ[w] != 0) {
			return fmt.Errorf("summary bit %d is %v, occupancy word %#x", w, summarized, k.occ[w])
		}
	}

	for i, e := range k.heap {
		if err := queued(e.idx, fmt.Sprintf("heap[%d]", i)); err != nil {
			return err
		}
		n := &k.arena[e.idx]
		if n.when != e.when || n.seq != e.seq {
			return fmt.Errorf("heap[%d] key (%d,%d) disagrees with slot %d key (%d,%d)",
				i, e.when, e.seq, e.idx, n.when, n.seq)
		}
		if e.when-k.now < wheelSize {
			return fmt.Errorf("heap[%d] due at %d is inside the window starting at %d", i, e.when, k.now)
		}
		if i > 0 {
			parent := k.heap[(i-1)/4]
			if entryLess(e, parent) {
				return fmt.Errorf("heap order violated at %d: (%d,%d) < parent (%d,%d)",
					i, e.when, e.seq, parent.when, parent.seq)
			}
		}
	}
	if liveCount != k.live {
		return fmt.Errorf("live = %d, queue holds %d non-cancelled events", k.live, liveCount)
	}
	for _, idx := range k.free {
		if err := visit(idx, "free list"); err != nil {
			return err
		}
		if n := &k.arena[idx]; n.fn != nil || n.afn != nil || n.arg != nil {
			return fmt.Errorf("free slot %d still holds a callback", idx)
		}
	}
	if inWheel+len(k.heap)+len(k.free) != len(k.arena)-1 {
		return fmt.Errorf("arena accounting: %d wheel + %d overflow + %d free != %d slots",
			inWheel, len(k.heap), len(k.free), len(k.arena)-1)
	}
	return nil
}

// TestCancelThenRescheduleSameTimestamp covers the free-list round
// trip the engine performs when a rank's quantum is cancelled and a
// replacement lands on the same virtual time: the recycled slot must
// get a fresh sequence number, preserving FIFO order among survivors.
func TestCancelThenRescheduleSameTimestamp(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(10, func() { order = append(order, "a") })
	e := k.At(10, func() { order = append(order, "dead") })
	k.At(10, func() { order = append(order, "b") })
	k.Cancel(e)
	// The replacement reuses the freed slot but schedules after "b".
	k.At(10, func() { order = append(order, "c") })
	if err := k.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[a b c]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
}

// TestCancelDuringDispatch cancels a same-timestamp event from inside
// a running callback: the victim is already in the heap, possibly at
// the root, and must be skipped, not dispatched.
func TestCancelDuringDispatch(t *testing.T) {
	k := NewKernel()
	ran := false
	var victim Event
	k.At(5, func() { k.Cancel(victim) })
	victim = k.At(5, func() { ran = true })
	survivor := 0
	k.At(5, func() { survivor++ })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("event cancelled during dispatch still ran")
	}
	if survivor != 1 {
		t.Fatalf("survivor ran %d times, want 1", survivor)
	}
	if err := k.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelSelfDuringDispatch: a callback cancelling its own (now
// stale) handle must be a no-op — the slot may already host another
// event.
func TestCancelSelfDuringDispatch(t *testing.T) {
	k := NewKernel()
	var self Event
	ran := false
	self = k.At(3, func() {
		k.Cancel(self) // stale: we are already dispatched
		k.At(4, func() { ran = true })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("follow-up event lost to a stale self-cancel")
	}
}

// TestPendingExcludesCancelled asserts the queue-depth accounting the
// tests rely on: cancelled events are not pending work.
func TestPendingExcludesCancelled(t *testing.T) {
	k := NewKernel()
	var events []Event
	for i := 0; i < 10; i++ {
		events = append(events, k.At(Time(i+1), func() {}))
	}
	if k.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", k.Pending())
	}
	for i := 0; i < 10; i += 2 {
		k.Cancel(events[i])
	}
	if k.Pending() != 5 {
		t.Fatalf("Pending = %d after cancelling 5, want 5", k.Pending())
	}
	k.Cancel(events[0]) // double cancel must not skew the count
	if k.Pending() != 5 {
		t.Fatalf("Pending = %d after double cancel, want 5", k.Pending())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", k.Pending())
	}
}

// TestStepHonorsLimits: Step must enforce the same event and time
// limits as Run instead of dispatching past them.
func TestStepHonorsLimits(t *testing.T) {
	k := NewKernel()
	k.SetEventLimit(2)
	n := 0
	for i := 1; i <= 4; i++ {
		k.At(Time(i), func() { n++ })
	}
	for k.Step() {
	}
	if n != 2 {
		t.Fatalf("Step dispatched %d events past a limit of 2", n)
	}
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", k.Pending())
	}

	k2 := NewKernel()
	k2.SetTimeLimit(10)
	ran := false
	k2.At(5, func() {})
	k2.At(20, func() { ran = true })
	if !k2.Step() {
		t.Fatal("Step refused an event inside the time limit")
	}
	if k2.Step() {
		t.Fatal("Step dispatched an event beyond the time limit")
	}
	if ran {
		t.Fatal("event beyond the time limit ran")
	}
	if k2.Now() != 5 {
		t.Fatalf("clock = %d, want 5", k2.Now())
	}
}

// TestStepSkipsCancelled: Step must not report a dispatch for events
// that were cancelled, and must reclaim their slots.
func TestStepSkipsCancelled(t *testing.T) {
	k := NewKernel()
	e := k.At(1, func() { t.Fatal("cancelled event ran") })
	k.Cancel(e)
	ran := false
	k.At(2, func() { ran = true })
	if !k.Step() {
		t.Fatal("Step returned false with a live event queued")
	}
	if !ran {
		t.Fatal("Step dispatched the wrong event")
	}
	if k.Step() {
		t.Fatal("Step returned true on an empty queue")
	}
	if err := k.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOverflowEntersWheelBeforeHandler pins the invariant that keeps the
// two tiers in (when, seq) order: an overflow event crosses into the
// wheel the moment the clock brings it inside the window — before the
// handler dispatched at that instant runs — so an event the handler
// schedules for the same timestamp queues behind it, not in front.
func TestOverflowEntersWheelBeforeHandler(t *testing.T) {
	k := NewKernel()
	defer k.Release()
	const due = wheelSize + 10
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	k.At(due, note("far-1")) // past the horizon: overflow
	k.At(due, note("far-2"))
	// now = 11 is the first instant whose window [11, 11+wheelSize)
	// holds due; its handler schedules into that very slot.
	k.At(11, func() {
		k.After(wheelSize-1, note("near"))
		if err := k.checkInvariants(); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[far-1 far-2 near]"; got != want {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
}

// TestResetLeavesNothingBehind releases storage the way every core.Run
// does — mid-simulation, with near, far and cancelled events still
// queued — and checks the next kernel built on it starts clean: no
// callback of the old life reachable or runnable, no old handle live,
// no occupancy bit set, every slot on the free list.
func TestResetLeavesNothingBehind(t *testing.T) {
	k := NewKernel()
	stale := func() { t.Error("a callback of the released kernel ran") }
	var old []Event
	for i := 0; i < 300; i++ {
		old = append(old, k.After(Duration(i*61), func() {}))
	}
	for i := 0; i < 100; i++ { // dispatch some, so the clock is mid-run
		k.Step()
	}
	for i := 0; i < 200; i++ {
		old = append(old, k.After(Duration(i*61), stale))
		old = append(old, k.AfterArg(wheelSize+Duration(i*997), func(any) { stale() }, &old))
	}
	for i := 0; i < len(old); i += 3 {
		k.Cancel(old[i])
	}
	if k.Pending() == 0 || len(k.heap) == 0 {
		t.Fatal("test set-up left nothing queued")
	}

	// What Release does, minus the pool, so the recycled store is the
	// one under test.
	s := k.store
	k.store = nil
	s.reset()
	k2 := &Kernel{store: s, maxTime: MaxTime}

	if err := k2.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(s.free) != len(s.arena)-1 || len(s.heap) != 0 {
		t.Fatalf("recycled store: %d of %d slots free, %d overflow entries", len(s.free), len(s.arena)-1, len(s.heap))
	}
	for i := range s.arena {
		if n := &s.arena[i]; n.fn != nil || n.afn != nil || n.arg != nil || n.cancelled {
			t.Fatalf("arena slot %d kept state across the reset: %+v", i, *n)
		}
	}
	if _, ok := k2.PeekTime(); ok || k2.Pending() != 0 || k2.Now() != 0 {
		t.Fatal("recycled kernel does not start empty at time zero")
	}
	// Old handles must stay dead even once their slots host new events.
	ran := 0
	for i := 0; i < 600; i++ {
		k2.After(Duration(i%40)*1000, func() { ran++ })
	}
	for _, e := range old {
		if k2.Live(e) {
			t.Fatalf("handle %+v of the released kernel is live on the recycled one", e)
		}
		if _, ok := k2.When(e); ok {
			t.Fatalf("handle %+v of the released kernel resolves on the recycled one", e)
		}
		k2.Cancel(e)
	}
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 600 {
		t.Fatalf("recycled kernel ran %d of 600 events (a stale Cancel hit?)", ran)
	}
}

// TestReleaseDetachesAndRecycles: a released kernel lets go of its
// storage (a second Release is a no-op), and NewKernel / Release cycles
// reuse it instead of building a wheel per kernel.
func TestReleaseDetachesAndRecycles(t *testing.T) {
	k := NewKernel()
	k.After(5, func() {})
	k.Release()
	if k.store != nil {
		t.Fatal("released kernel still holds its storage")
	}
	k.Release()

	n := 0
	count := func() { n++ }
	cycle := func() {
		k := NewKernel()
		for i := 0; i < 50; i++ {
			k.After(Duration(i), count)
		}
		k.After(3*wheelSize, count)
		if err := k.RunUntil(40); err != nil {
			t.Fatal(err)
		}
		k.Release()
	}
	cycle()
	// The one allocation is the Kernel itself; a fresh store growing its
	// arena, free list and heap to this cycle's size is over fifteen more.
	// The pool is a plain free list, not a sync.Pool, so a collection
	// between cycles must not cost the store either.
	if allocs := testing.AllocsPerRun(200, func() { runtime.GC(); cycle() }); allocs > 1 {
		t.Fatalf("NewKernel/Release cycle allocates %.1f times: storage is not recycled", allocs)
	}
	if n == 0 {
		t.Fatal("cycles dispatched nothing")
	}
}

// randomDelay draws a delay that exercises both tiers and the seam
// between them: mostly near the clock (the wheel), often exactly on
// either side of the horizon, sometimes far past it (the overflow heap,
// and a jump longer than the wheel once the near events drain).
func randomDelay(rng *rand.Rand) Duration {
	switch p := rng.Intn(100); {
	case p < 50:
		return Duration(rng.Intn(1000))
	case p < 60:
		return 0
	case p < 70:
		return wheelSize - 1
	case p < 80:
		return wheelSize
	case p < 90:
		return wheelSize + Duration(rng.Intn(1000))
	default:
		return Duration(10*wheelSize + rng.Intn(100*wheelSize))
	}
}

// TestArenaMixedOpsFuzz drives the kernel through 10^5 randomized
// schedule / cancel / dispatch operations against a reference model,
// alternating schedule-heavy phases with dispatch-heavy ones so the
// queue repeatedly shrinks to its far events and the clock jumps more
// than a wheel turn. It asserts after every phase that the queue
// invariants hold, that dispatch order is globally sorted by (time,
// scheduling order), that every event runs at its own timestamp, that
// cancelled events never run, and that every surviving event runs
// exactly once.
func TestArenaMixedOpsFuzz(t *testing.T) {
	const ops = 100_000
	rng := rand.New(rand.NewSource(20260805))
	k := NewKernel()
	defer k.Release()

	type ref struct {
		id        int
		when      Time
		cancelled bool
	}
	handles := make(map[int]Event) // live, not yet dispatched (as far as the model knows)
	model := make(map[int]*ref)
	var dispatched []int
	nextID := 0
	liveIDs := make([]int, 0, ops)
	overflowed, jumps := 0, 0

	scheduleOne := func() {
		id := nextID
		nextID++
		when := k.Now().Add(randomDelay(rng))
		model[id] = &ref{id: id, when: when}
		handles[id] = k.At(when, func() {
			if k.Now() != when {
				t.Fatalf("event %d due at %d ran at %d", id, when, k.Now())
			}
			dispatched = append(dispatched, id)
		})
		if when-k.Now() >= wheelSize {
			overflowed++
		}
		liveIDs = append(liveIDs, id)
	}

	for i := 0; i < ops; i++ {
		schedule, cancel := 55, 75 // cumulative percentages; the rest steps
		if i/2000%2 == 1 {
			schedule, cancel = 10, 20 // drain phase
		}
		switch p := rng.Intn(100); {
		case p < schedule:
			scheduleOne()
		case p < cancel:
			if len(liveIDs) == 0 {
				scheduleOne()
				continue
			}
			j := rng.Intn(len(liveIDs))
			id := liveIDs[j]
			liveIDs[j] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
			// May be a stale handle (already dispatched): Cancel must be
			// a no-op then; the model only marks truly pending events.
			if k.Live(handles[id]) {
				model[id].cancelled = true
			}
			k.Cancel(handles[id])
		default:
			before := k.Now()
			if k.Step() && k.Now()-before > wheelSize {
				jumps++
			}
		}
		if i%500 == 0 {
			if err := k.checkInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	for k.Step() {
	}
	if err := k.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", k.Pending())
	}
	if overflowed < ops/20 || jumps < 10 {
		t.Fatalf("fuzz barely left the wheel: %d overflow schedules, %d jumps past a wheel turn", overflowed, jumps)
	}

	// Every dispatched id must be unique, non-cancelled, and in global
	// (when, seq) order. Ids are allocated in scheduling order, so for
	// equal timestamps the id order is the required FIFO order.
	seen := make(map[int]bool, len(dispatched))
	for i, id := range dispatched {
		if seen[id] {
			t.Fatalf("event %d dispatched twice", id)
		}
		seen[id] = true
		r := model[id]
		if r.cancelled {
			t.Fatalf("cancelled event %d ran", id)
		}
		if i > 0 {
			prev := model[dispatched[i-1]]
			if r.when < prev.when {
				t.Fatalf("dispatch order violated: %d@%d after %d@%d",
					id, r.when, prev.id, prev.when)
			}
			if r.when == prev.when && id < prev.id {
				t.Fatalf("FIFO tie-break violated at t=%d: id %d after id %d",
					r.when, id, prev.id)
			}
		}
	}
	for id, r := range model {
		if !r.cancelled && !seen[id] {
			t.Fatalf("event %d lost: neither cancelled nor dispatched", id)
		}
	}
	if len(dispatched) == 0 {
		t.Fatal("fuzz dispatched nothing")
	}
}
