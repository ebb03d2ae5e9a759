package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// checkInvariants verifies the structural invariants of the three-tier
// queue: the frontier is aligned and within a wheel turn ahead of the
// clock; every near chain is one timestamp in [now, front) in seq
// order; every far chain lies in its own slot's range inside
// [front, front+farSpan) with each timestamp's events in seq order;
// both occupancy bitmaps and their summaries agree with the slot heads;
// the overflow heap is ordered and holds only events at or past the far
// horizon; and near + far + overflow + free list account for every
// arena slot exactly once. It must hold between any two kernel
// operations.
func (k *Kernel) checkInvariants() error {
	if k.front&(farGrain-1) != 0 || k.front <= k.now || k.front > k.now+wheelSize {
		return fmt.Errorf("frontier %d is not a multiple of %d in (%d, %d]", k.front, farGrain, k.now, k.now+wheelSize)
	}
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
		if k.arena[idx].afn != nil {
			liveCount++
		}
		return nil
	}
	// chain walks one wheel slot's chain, checking linkage and tail, and
	// hands every node to each.
	chain := func(sl wheelSlot, occupied bool, tier string, s int, each func(*eventNode) error) (int, error) {
		if occupied != (sl.head != 0) {
			return 0, fmt.Errorf("%s slot %d: occupancy bit %v, head %d", tier, s, occupied, sl.head)
		}
		n, last := 0, int32(0)
		for idx := sl.head; idx != 0; idx = k.arena[idx].next {
			if err := queued(idx, tier); err != nil {
				return 0, fmt.Errorf("slot %d: %v", s, err)
			}
			if err := each(&k.arena[idx]); err != nil {
				return 0, fmt.Errorf("%s slot %d: %v", tier, s, err)
			}
			last = idx
			n++
		}
		if sl.head != 0 && sl.tail != last {
			return 0, fmt.Errorf("%s slot %d: tail %d, chain ends at %d", tier, s, sl.tail, last)
		}
		return n, nil
	}

	inWheel := 0
	for s := range k.slots {
		var prev *eventNode
		n, err := chain(k.slots[s], k.occ[s>>6]&(1<<(uint(s)&63)) != 0, "wheel", s, func(n *eventNode) error {
			if int(uint(n.when)&wheelMask) != s {
				return fmt.Errorf("holds an event due at %d", n.when)
			}
			if n.when < k.now || n.when >= k.front {
				return fmt.Errorf("event at %d outside [now, front) = [%d, %d)", n.when, k.now, k.front)
			}
			if prev != nil && (n.when != prev.when || n.seq <= prev.seq) {
				return fmt.Errorf("chain not FIFO: (%d,%d) after (%d,%d)", n.when, n.seq, prev.when, prev.seq)
			}
			prev = n
			return nil
		})
		if err != nil {
			return err
		}
		inWheel += n
	}
	for w := range k.occ {
		summarized := k.sum[w>>6]&(1<<(uint(w)&63)) != 0
		if summarized != (k.occ[w] != 0) {
			return fmt.Errorf("summary bit %d is %v, occupancy word %#x", w, summarized, k.occ[w])
		}
	}

	inFarWheel := 0
	for s := range k.far {
		var lastSeq map[Time]uint64 // per timestamp: the chain must be FIFO
		n, err := chain(k.far[s], k.farOcc[s>>6]&(1<<(uint(s)&63)) != 0, "far", s, func(n *eventNode) error {
			if int(uint(n.when>>farShift)&farMask) != s {
				return fmt.Errorf("holds an event due at %d", n.when)
			}
			if n.when < k.front || n.when-k.front >= farSpan {
				return fmt.Errorf("event at %d outside [front, front+farSpan) = [%d, %d)", n.when, k.front, k.front+farSpan)
			}
			if seq, ok := lastSeq[n.when]; ok && n.seq <= seq {
				return fmt.Errorf("chain not FIFO at %d: seq %d after seq %d", n.when, n.seq, seq)
			}
			if lastSeq == nil {
				lastSeq = make(map[Time]uint64)
			}
			lastSeq[n.when] = n.seq
			return nil
		})
		if err != nil {
			return err
		}
		inFarWheel += n
	}
	for w := range k.farOcc {
		summarized := k.farSum&(1<<uint(w)) != 0
		if summarized != (k.farOcc[w] != 0) {
			return fmt.Errorf("far summary bit %d is %v, occupancy word %#x", w, summarized, k.farOcc[w])
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
		if e.when-k.front < farSpan {
			return fmt.Errorf("heap[%d] due at %d is below the far horizon %d", i, e.when, k.front+farSpan)
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
		if n := &k.arena[idx]; n.afn != nil || n.arg != nil {
			return fmt.Errorf("free slot %d still holds a callback", idx)
		}
	}
	if inWheel+inFarWheel+len(k.heap)+len(k.free) != len(k.arena)-1 {
		return fmt.Errorf("arena accounting: %d near + %d far + %d overflow + %d free != %d slots",
			inWheel, inFarWheel, len(k.heap), len(k.free), len(k.arena)-1)
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

// TestStepHonorsLimits: Step must enforce the same time limit as Run
// instead of dispatching past it.
func TestStepHonorsLimits(t *testing.T) {
	k := NewKernel()
	k.SetTimeLimit(10)
	ran := false
	k.At(5, func() {})
	k.At(20, func() { ran = true })
	if !k.Step() {
		t.Fatal("Step refused an event inside the time limit")
	}
	if k.Step() {
		t.Fatal("Step dispatched an event beyond the time limit")
	}
	if ran {
		t.Fatal("event beyond the time limit ran")
	}
	if k.Now() != 5 {
		t.Fatalf("clock = %d, want 5", k.Now())
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
// tiers in (when, seq) order, at the seam the clock crosses when it
// jumps further than the far wheel reaches: an overflow event enters
// the near wheel the moment the frontier passes it — before the handler
// dispatched at that instant runs — so an event the handler schedules
// for the same timestamp queues behind it, not in front.
func TestOverflowEntersWheelBeforeHandler(t *testing.T) {
	k := NewKernel()
	const due = 3 * farSpan
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	k.At(due, note("far-1")) // past the far horizon: overflow
	k.At(due, note("far-2"))
	// The first dispatch jumps the clock from 0 to within a wheel turn of
	// due; its handler schedules into that very slot.
	k.At(due-wheelSize/2, func() {
		if len(k.heap) != 0 {
			t.Errorf("%d events still in the overflow heap at the handler", len(k.heap))
		}
		k.After(wheelSize/2, note("near"))
		if err := k.checkInvariants(); err != nil {
			t.Error(err)
		}
	})
	if len(k.heap) != 3 {
		t.Fatalf("set-up queued %d overflow events, want 3", len(k.heap))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[far-1 far-2 near]"; got != want {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
}

// TestFarEntersWheelBeforeHandler is the same invariant at the two
// seams of the far wheel. far→near: events waiting in a far slot empty
// into their nanosecond slots when the frontier passes them, before the
// handler dispatched at that instant schedules one more for the same
// timestamp straight into the near wheel. heap→far: overflow events
// move to their far slot when the far horizon reaches them, before the
// handler schedules one more for the same timestamp straight into the
// far wheel.
func TestFarEntersWheelBeforeHandler(t *testing.T) {
	for _, c := range []struct {
		name string
		due  Time
		from func(k *Kernel) int // how many events the starting tier holds
	}{
		{"far to near", wheelSize + 10, func(k *Kernel) int { return k.farLen() }},
		{"heap to far", wheelSize + farSpan + 10, func(k *Kernel) int { return len(k.heap) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := NewKernel()
			var order []string
			note := func(s string) func() { return func() { order = append(order, s) } }
			k.At(c.due, note("first"))
			k.At(c.due, note("second"))
			if got := c.from(k); got != 2 {
				t.Fatalf("set-up: %d events in the starting tier, want 2", got)
			}
			// now = farGrain is the first instant whose frontier (and far
			// horizon) lies past due.
			k.At(farGrain-1, func() {
				if got := c.from(k); got != 2 {
					t.Errorf("one nanosecond early: %d events in the starting tier, want 2", got)
				}
			})
			k.At(farGrain, func() {
				if got := c.from(k); got != 0 {
					t.Errorf("%d events still in the starting tier at the handler", got)
				}
				k.At(c.due, note("third"))
				if err := k.checkInvariants(); err != nil {
					t.Error(err)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprint(order), "[first second third]"; got != want {
				t.Fatalf("dispatch order %v, want %v", got, want)
			}
		})
	}
}

// farLen counts the nodes linked into the far wheel.
func (k *Kernel) farLen() int {
	n := 0
	for _, sl := range k.far {
		for idx := sl.head; idx != 0; idx = k.arena[idx].next {
			n++
		}
	}
	return n
}

// TestClockJumpPastFarSpan schedules events for one timestamp at three
// clock readings, so that they enter the queue through the heap, the
// far wheel and the near wheel, and then makes the clock jump further
// than the far wheel spans, onto an event of the far wheel's last slot,
// so that one advance empties far slots and moves overflow events into
// both wheels. Dispatch order must be scheduling order throughout.
func TestClockJumpPastFarSpan(t *testing.T) {
	k := NewKernel()
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	check := func() {
		t.Helper()
		if err := k.checkInvariants(); err != nil {
			t.Error(err)
		}
	}

	const due = Time(6 * Millisecond)
	k.At(due, note("heap-1"))
	k.At(due, note("heap-2"))
	if len(k.heap) != 2 {
		t.Fatalf("%d overflow events, want 2", len(k.heap))
	}
	k.At(Time(3*Millisecond), func() { // due is inside the far horizon by now
		k.At(due, note("far-1"))
		k.At(due, note("far-2"))
		if len(k.heap) != 0 || k.farLen() != 5 {
			t.Errorf("at 3ms: %d overflow and %d far events, want 0 and 5", len(k.heap), k.farLen())
		}
		check()
	})
	k.At(due-5000, func() { // due is behind the frontier by now
		k.At(due, note("near-1"))
		k.At(due, note("near-2"))
		if k.farLen() != 0 {
			t.Errorf("at due-5µs: %d far events, want 0", k.farLen())
		}
		check()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[heap-1 heap-2 far-1 far-2 near-1 near-2]"; got != want {
		t.Fatalf("one timestamp through three tiers: dispatch order %v, want %v", got, want)
	}

	// The jump. Everything is relative to the frontier: land is in the
	// last far slot, a jump of more than farSpan from the clock.
	order = nil
	base, start := k.front, k.Now()
	land := base + farSpan - 100
	var jumped Duration
	k.At(land, func() {
		jumped = k.Now().Sub(start)
		order = append(order, "land")
		k.At(land+50, note("slot-mate-2")) // near by now, behind its far slot-mate
		k.At(base+farSpan+200, note("overflow-near-3"))
		k.At(land+Time(Millisecond), note("overflow-far-2"))
		if len(k.heap) != 0 {
			t.Errorf("%d events still in the overflow heap after the jump", len(k.heap))
		}
		check()
	})
	k.At(land+50, note("slot-mate-1"))
	k.At(base+farSpan+200, note("overflow-near-1")) // overflow now, behind the frontier after the jump
	k.At(base+farSpan+200, note("overflow-near-2"))
	k.At(land+Time(Millisecond), note("overflow-far-1")) // overflow now, in the far wheel after the jump
	if k.farLen() != 2 || len(k.heap) != 3 {
		t.Fatalf("jump set-up: %d far and %d overflow events, want 2 and 3", k.farLen(), len(k.heap))
	}
	check()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if jumped <= farSpan {
		t.Fatalf("the clock jumped %d ns, want more than farSpan = %d", jumped, farSpan)
	}
	want := "[land slot-mate-1 slot-mate-2 overflow-near-1 overflow-near-2 overflow-near-3 overflow-far-1 overflow-far-2]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("jump past farSpan: dispatch order\n got %v\nwant %v", got, want)
	}
	check()
}

// TestCancelInFarWheel drives the steal-timeout pattern through the far
// wheel: arm a 100 µs timer, cancel it, re-arm. A cancelled far node
// stays queued (When still answers) but is not pending work, the
// re-armed timer queues behind it in the same slot, the scan for the
// slot's minimum reclaims it, and a run of arm/cancel rounds keeps the
// arena at the size of the cancelled timers one wheel turn holds.
func TestCancelInFarWheel(t *testing.T) {
	k := NewKernel()
	const timeout = 100 * Microsecond
	fired := 0
	fire := func() { fired++ }

	e1 := k.After(timeout, fire)
	if k.farLen() != 1 || !k.Live(e1) || k.Pending() != 1 {
		t.Fatalf("armed: %d far nodes, live %v, pending %d", k.farLen(), k.Live(e1), k.Pending())
	}
	k.Cancel(e1)
	if when, ok := k.When(e1); k.Live(e1) || k.Pending() != 0 || !ok || when != Time(timeout) {
		t.Fatalf("cancelled: live %v, pending %d, When = (%d, %v)", k.Live(e1), k.Pending(), when, ok)
	}
	if _, ok := k.PeekTime(); ok {
		t.Fatal("PeekTime reports an event with only a cancelled timer queued")
	}
	e2 := k.After(timeout, fire)
	e3 := k.After(timeout-1, fire) // same far slot, earlier, behind e2 in the chain
	e4 := k.After(timeout, fire)
	k.Cancel(e4)
	if k.farLen() != 4 || k.Pending() != 2 {
		t.Fatalf("re-armed: %d far nodes, pending %d; want 4 (two cancelled) and 2", k.farLen(), k.Pending())
	}
	if err := k.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// The scan finds e3 in mid-chain and reclaims both cancelled nodes.
	if when, ok := k.PeekTime(); !ok || when != Time(timeout-1) {
		t.Fatalf("PeekTime = (%d, %v), want (%d, true)", when, ok, timeout-1)
	}
	if _, ok := k.When(e1); ok || k.farLen() != 2 {
		t.Fatalf("after the scan: cancelled handle resolves %v, %d far nodes; want false and 2", ok, k.farLen())
	}
	if _, ok := k.When(e4); ok {
		t.Fatal("cancelled tail of the chain was not reclaimed")
	}
	if err := k.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if !k.Step() || k.Now() != Time(timeout-1) || k.Live(e3) || !k.Live(e2) {
		t.Fatalf("first step: now %d, e3 live %v, e2 live %v", k.Now(), k.Live(e3), k.Live(e2))
	}
	if !k.Step() || k.Now() != Time(timeout) || fired != 2 || k.Pending() != 0 {
		t.Fatalf("second step: now %d, fired %d, pending %d", k.Now(), fired, k.Pending())
	}

	// Steady state: every reply cancels the armed timeout and the next
	// request re-arms it, a microsecond of virtual time apart.
	var timer Event
	rounds := 0
	var round func()
	round = func() {
		k.Cancel(timer)
		if rounds++; rounds < 5000 {
			timer = k.After(timeout, fire)
			k.After(Microsecond, round)
		}
	}
	round()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("a cancelled timeout fired (%d timers ran, want 2)", fired)
	}
	if limit := int(timeout/Microsecond) + 8; len(k.arena) > limit {
		t.Fatalf("arena grew to %d slots over 5000 arm/cancel rounds, want at most %d: cancelled far nodes are not reclaimed", len(k.arena), limit)
	}
	if err := k.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestResetLeavesNothingBehind resets a kernel the way every core.Run
// ends — mid-simulation, with near, far, overflow and cancelled events
// still queued — and checks the next simulation on it starts clean: no
// callback of the old one reachable or runnable, no old handle live,
// no occupancy bit set, every slot on the free list.
func TestResetLeavesNothingBehind(t *testing.T) {
	k := NewKernel()
	stale := func() { t.Error("a callback of the reset simulation ran") }
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
		old = append(old, k.AfterArg(farSpan+wheelSize+Duration(i*997), func(any) { stale() }, &old))
	}
	for i := 0; i < len(old); i += 3 {
		k.Cancel(old[i])
	}
	k.SetTimeLimit(1 << 40)
	if k.Pending() == 0 || k.sum == [sumWords]uint64{} || k.farSum == 0 || len(k.heap) == 0 {
		t.Fatal("test set-up left a tier empty")
	}

	k.Reset()

	if err := k.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(k.free) != len(k.arena)-1 || len(k.heap) != 0 {
		t.Fatalf("reset kernel: %d of %d slots free, %d overflow entries", len(k.free), len(k.arena)-1, len(k.heap))
	}
	for i := range k.arena {
		if n := &k.arena[i]; n.afn != nil || n.arg != nil {
			t.Fatalf("arena slot %d kept state across the reset: %+v", i, *n)
		}
	}
	if _, ok := k.PeekTime(); ok || k.Pending() != 0 || k.Now() != 0 || k.Dispatched() != 0 || k.maxTime != MaxTime {
		t.Fatal("reset kernel does not start empty at time zero without a time limit")
	}
	// Old handles must stay dead even once their slots host new events.
	ran := 0
	for i := 0; i < 600; i++ {
		k.After(Duration(i%40)*1000, func() { ran++ })
	}
	for _, e := range old {
		if k.Live(e) {
			t.Fatalf("handle %+v of the reset simulation is live on the next one", e)
		}
		if _, ok := k.When(e); ok {
			t.Fatalf("handle %+v of the reset simulation resolves on the next one", e)
		}
		k.Cancel(e)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 600 {
		t.Fatalf("the next simulation ran %d of 600 events (a stale Cancel hit?)", ran)
	}
}

// TestStaleHandleAfterReset: a handle issued before Reset names an arena
// slot the next simulation recycles. Cancelling it afterwards is a
// no-op: the new event in that very slot stays live and runs.
func TestStaleHandleAfterReset(t *testing.T) {
	k := NewKernel()
	old := k.After(10, func() { t.Error("the reset simulation's event ran") })
	k.Reset()
	ran := false
	e := k.After(10, func() { ran = true })
	if e.idx != old.idx || e.gen == old.gen {
		t.Fatalf("new event %+v does not recycle the old handle's slot %+v under a new generation", e, old)
	}
	k.Cancel(old)
	if !k.Live(e) || k.Pending() != 1 {
		t.Fatalf("a stale Cancel reached the recycled slot: live %v, pending %d", k.Live(e), k.Pending())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("the new event in the recycled slot did not run")
	}
}

// TestResetKeepsStorage: simulations run one after another on one
// kernel, each ended by Reset, reuse its storage instead of building a
// wheel per run. The kernel's owner holds the storage, not a sync.Pool,
// so a collection between runs must not cost it either.
func TestResetKeepsStorage(t *testing.T) {
	k := NewKernel()
	n := 0
	count := func() { n++ }
	cycle := func() {
		for i := 0; i < 50; i++ {
			k.After(Duration(i), count)
		}
		k.After(3*wheelSize, count)
		k.After(2*farSpan, count)
		if err := k.RunUntil(40); err != nil {
			t.Fatal(err)
		}
		k.Reset()
	}
	cycle()
	bytes := k.Bytes()
	// A new kernel growing its arena, free list and heap to this cycle's
	// size is over fifteen allocations.
	if allocs := testing.AllocsPerRun(200, func() { runtime.GC(); cycle() }); allocs != 0 {
		t.Fatalf("a run/Reset cycle allocates %.1f times: storage is not kept", allocs)
	}
	if n == 0 {
		t.Fatal("cycles dispatched nothing")
	}
	if k.Bytes() != bytes || bytes < wheelSize*int(unsafe.Sizeof(wheelSlot{})) {
		t.Fatalf("Bytes went from %d to %d over identical cycles; the near wheel alone is %d",
			bytes, k.Bytes(), wheelSize*int(unsafe.Sizeof(wheelSlot{})))
	}
}

// randomDelay draws a delay that exercises all three tiers and the seams
// between them: mostly near the clock (the near wheel), often exactly
// on either side of the frontier's range and of the far horizon,
// backoff-sized pauses (the far wheel), and sometimes far past the
// horizon (the overflow heap, and a jump longer than both wheels once
// the nearer events drain).
func randomDelay(rng *rand.Rand) Duration {
	switch p := rng.Intn(100); {
	case p < 45:
		return Duration(rng.Intn(1000))
	case p < 55:
		return 0
	case p < 65:
		return wheelSize - Duration(rng.Intn(farGrain+1))
	case p < 70:
		return wheelSize + Duration(rng.Intn(1000))
	case p < 82:
		return Duration(rng.Intn(farSpan))
	case p < 90:
		return farSpan + Duration(rng.Intn(wheelSize+1))
	default:
		return Duration(2*farSpan + rng.Intn(8*farSpan))
	}
}

// TestArenaMixedOpsFuzz drives the kernel through 10^5 randomized
// schedule / cancel / dispatch operations against a reference model,
// alternating schedule-heavy phases with dispatch-heavy ones so the
// queue repeatedly shrinks to its far and overflow events and the clock
// jumps more than a turn of either wheel. It asserts after every phase that the queue
// invariants hold, that dispatch order is globally sorted by (time,
// scheduling order), that every event runs at its own timestamp, that
// cancelled events never run, and that every surviving event runs
// exactly once.
func TestArenaMixedOpsFuzz(t *testing.T) {
	const ops = 100_000
	rng := rand.New(rand.NewSource(20260805))
	k := NewKernel()

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
	far, overflowed, jumps, farJumps := 0, 0, 0, 0

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
		switch {
		case when-k.front >= farSpan:
			overflowed++
		case when >= k.front:
			far++
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
				if k.Now()-before > farSpan {
					farJumps++
				}
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
	if far < ops/20 || overflowed < ops/50 || jumps < 10 || farJumps < 3 {
		t.Fatalf("fuzz barely left the near wheel: %d far and %d overflow schedules, %d jumps past a wheel turn, %d past farSpan",
			far, overflowed, jumps, farJumps)
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
