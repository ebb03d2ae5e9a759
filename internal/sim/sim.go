// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of events.
// Events scheduled for the same virtual time are dispatched in the order
// they were scheduled (FIFO tie-breaking via a monotonically increasing
// sequence number), which makes every simulation a pure function of its
// inputs: the same schedule of events always produces the same execution.
//
// The kernel is single-threaded by design. Simulating thousands of
// communicating ranks with goroutines would serialize on channel
// operations and lose determinism; instead each simulated entity is an
// event-driven state machine and the harness parallelizes across
// independent simulations.
//
// # Implementation
//
// The queue has three tiers over one event arena with a free list,
// split by a frontier: front, a multiple of farGrain with
// now < front <= now+wheelSize that only ever grows.
//
// The near tier is a timing wheel: wheelSize slots of one nanosecond
// each, slot index when&wheelMask, every slot a FIFO chain linked
// through the arena nodes themselves. It holds the events due before
// front, which is less than a wheel turn past the clock, so a slot
// holds one timestamp at a time and needs no comparisons: appending is
// scheduling order, which is seq order. A two-level occupancy bitmap
// finds the next non-empty slot in a handful of word operations however
// sparse the wheel is.
//
// The far tier is a second wheel of the same construction but coarser:
// farSlots slots of farGrain nanoseconds, holding the events in
// [front, front+farSpan) — backoff pauses, steal timeouts. A far slot
// mixes the timestamps of its farGrain-wide range; its chain keeps the
// events of any one timestamp in seq order.
//
// The overflow tier is a 4-ary min-heap of (when, seq, slot) entries
// for everything at or beyond front+farSpan (crash instants,
// pre-compiled arrivals).
//
// Every time the clock advances, and before the dispatched handler
// runs, front is moved up to the last multiple of farGrain within a
// wheel turn of the new clock, the far slots it passed are emptied into
// their one-nanosecond slots in chain order, and then the heap entries
// below the new front+farSpan are moved to the far wheel — or, after a
// jump longer than farSpan, to the near one — in heap order. When the
// near wheel is empty the earliest event is the first minimum, in chain
// order, of the first occupied far slot, and is unlinked from the
// middle of its chain.
//
// Dispatch order is exactly the (when, seq) total order a single heap
// would give. For one timestamp T, the heap only ever received T while
// T >= front+farSpan, the far wheel while front <= T < front+farSpan,
// and the near wheel while T < front. front only grows, so those are
// three consecutive stretches of scheduling order, and every migration
// happens at the advance, before the handler can schedule: whatever a
// tier holds for T entered the queue before anything a nearer tier
// later receives for T directly. Tier order is therefore seq order,
// heap order and chain order within a tier are seq order, and the
// migrations append in exactly that order.
//
// Scheduling never touches the garbage collector after warm-up: event
// nodes are recycled through the free list and callers hold
// generation-stamped Event handles instead of node pointers. Cancel is
// O(1) lazy deletion — it clears the node's callback and lets the
// dispatch loop free it when it surfaces; the slot's generation counter
// makes any stale handle to a recycled slot harmless. A node is one
// cache line and carries a two-word Payload besides its callback, so a
// small datum rides in the event itself. The wheels are a fixed
// footprint per kernel, so a caller that runs one simulation after
// another keeps one kernel and empties it with Reset, which keeps its
// storage (wheels, arena, free list, heap).
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"unsafe"
)

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration constants.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable virtual timestamp.
const MaxTime = Time(math.MaxInt64)

// Add returns the timestamp d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts a virtual duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Seconds converts a virtual timestamp to floating-point seconds since start.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats d by its magnitude, with a leading minus when d is
// negative: "0s", "500ns", "1.500µs", "-2.000ms", "3.000000s".
func (d Duration) String() string {
	sign, m := "", uint64(d)
	if d < 0 {
		sign, m = "-", uint64(-d) // -MinInt64 wraps to itself: 1<<63 as uint64
	}
	switch {
	case m == 0:
		return "0s"
	case m < uint64(Microsecond):
		return fmt.Sprintf("%s%dns", sign, m)
	case m < uint64(Millisecond):
		return fmt.Sprintf("%s%.3fµs", sign, float64(m)/1e3)
	case m < uint64(Second):
		return fmt.Sprintf("%s%.3fms", sign, float64(m)/1e6)
	default:
		return fmt.Sprintf("%s%.6fs", sign, float64(m)/1e9)
	}
}

// Event is a handle to a scheduled callback: an arena slot stamped with
// the slot's generation at scheduling time. Handles are small values,
// freely copyable, and never dangle — once the event dispatches, is
// cancelled, or its slot is recycled, the generation no longer matches
// and every operation on the stale handle is a no-op. The zero Event
// refers to nothing.
type Event struct {
	idx int32
	gen uint32
}

// Payload is the two words an event carries in its own node, for a
// callback to read with Kernel.Payload while it runs: data that would
// otherwise need an object of its own, such as a message header or the
// rank a timer belongs to. It is a struct, not an array: the register
// ABI passes a struct's fields in registers but an array of two on the
// stack, where reloading it whole stalls on the two stores that wrote it.
type Payload struct{ A, B uint64 }

// eventNode is one arena slot: one 64-byte cache line
// (TestEventNodeOneLine).
type eventNode struct {
	when Time
	seq  uint64
	// afn(arg) is the callback; At and After pass their func() as arg
	// (a func value boxes without allocating). A queued node is
	// cancelled exactly when afn is nil.
	afn func(any)
	arg any
	p   Payload
	// gen is incremented every time the slot is freed, invalidating
	// outstanding handles.
	gen uint32
	// next links the node into its wheel slot's FIFO chain (0 ends it).
	next int32
}

// callFunc is the callback of every event scheduled with At or After:
// its argument is the func() to run.
func callFunc(fn any) { fn.(func())() }

// The near wheel covers up to wheelSize nanoseconds ahead of the clock.
// 2^14 ns holds every delay the model produces per event — 1 µs quanta,
// 2–15 µs network latencies, sub-µs handling costs.
const (
	wheelBits  = 14 // at least 12, so the summary has a whole word
	wheelSize  = 1 << wheelBits
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
	sumWords   = wheelWords / 64
)

// The far wheel covers the farSpan nanoseconds past the frontier in
// slots of farGrain. 2^12 slots of 2^10 ns are 4.19 ms: every backoff
// pause of the engine (up to its 2 ms cap) and every steal timeout
// (100 µs), the timers a steal storm re-arms once per failed round, for
// 32 KB of slots and a single summary word. A 1 µs grain keeps a chain
// to the few timers that expire within one quantum, so the scan for a
// slot's minimum stays short, and a slot empties into the near wheel
// once per quantum of virtual time.
const (
	farShift = 10
	farGrain = 1 << farShift
	farBits  = 12 // at most 12, so the summary is a single word
	farSlots = 1 << farBits
	farMask  = farSlots - 1
	farWords = farSlots / 64
	farSpan  = farSlots * farGrain
)

// wheelSlot is the FIFO chain of the events one wheel slot holds — one
// timestamp's in the near wheel, one farGrain range's in the far one:
// arena indices of its first and last node, 0 when empty.
type wheelSlot struct{ head, tail int32 }

// heapEntry is one overflow-heap position. The sort key (when, seq) is
// stored inline so the sift loops compare contiguous heap memory
// instead of chasing arena slots.
type heapEntry struct {
	when Time
	seq  uint64
	idx  int32
}

func entryLess(a, b heapEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Kernel is a discrete-event simulation engine. arena[0] is reserved so
// that index 0 can mean "none" in handles, chains and slots.
//
// The zero value is not usable; construct with NewKernel.
type Kernel struct {
	now Time
	// front is the tier boundary: the near wheel holds the events due
	// before it, the far wheel those in [front, front+farSpan), the heap
	// the rest. See advance.
	front Time
	// live counts queued, non-cancelled events. Cancelled nodes stay in
	// their tier until they surface, so the tiers may hold more than live.
	live       int
	seq        uint64
	dispatched uint64
	// payload is the dispatched event's, for Payload.
	payload Payload
	running bool
	stopped bool
	// maxTime guards against runaway simulations: an event due after it
	// is refused with ErrTimeLimit.
	maxTime Time

	arena []eventNode
	free  []int32     // recycled arena slots
	heap  []heapEntry // overflow: 4-ary min-heap ordered by (when, seq)

	slots [wheelSize]wheelSlot
	// occ has bit s set iff slots[s] is non-empty; sum has bit w set iff
	// occ[w] is non-zero.
	occ [wheelWords]uint64
	sum [sumWords]uint64

	// The far wheel, with the same two-level occupancy.
	far    [farSlots]wheelSlot
	farOcc [farWords]uint64
	farSum uint64
}

// NewKernel returns a kernel with the clock at zero and an empty queue.
func NewKernel() *Kernel {
	return &Kernel{arena: make([]eventNode, 1), front: wheelSize, maxTime: MaxTime}
}

// Reset empties the kernel for its next simulation and keeps its
// storage: events still queued are discarded without running, no
// callback or argument of the finished simulation stays reachable,
// every handle issued so far goes stale, every arena slot is back on
// the free list, and the clock, counters and time limit are as
// NewKernel sets them. It must not be called while Run is running.
func (k *Kernel) Reset() {
	k.free = k.free[:0]
	for i := len(k.arena) - 1; i >= 1; i-- {
		k.freeNode(int32(i))
	}
	k.heap = k.heap[:0]
	k.slots = [wheelSize]wheelSlot{}
	k.occ = [wheelWords]uint64{}
	k.sum = [sumWords]uint64{}
	k.far = [farSlots]wheelSlot{}
	k.farOcc = [farWords]uint64{}
	k.farSum = 0
	k.now, k.front, k.live, k.seq, k.dispatched = 0, wheelSize, 0, 0, 0
	k.payload, k.stopped, k.maxTime = Payload{}, false, MaxTime
}

// Bytes is the storage the kernel keeps across a Reset: its wheels and
// the capacity of its arena, free list and heap.
func (k *Kernel) Bytes() int {
	return int(unsafe.Sizeof(*k)) + cap(k.arena)*int(unsafe.Sizeof(eventNode{})) +
		cap(k.free)*int(unsafe.Sizeof(int32(0))) + cap(k.heap)*int(unsafe.Sizeof(heapEntry{}))
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Dispatched returns the number of events executed so far.
func (k *Kernel) Dispatched() uint64 { return k.dispatched }

// Pending returns the number of events waiting in the queue. Cancelled
// events are not counted: they are dead weight awaiting lazy removal,
// not work the simulation will perform.
func (k *Kernel) Pending() int { return k.live }

// SetTimeLimit bounds the virtual clock. Run returns ErrTimeLimit if an
// event beyond the deadline would be dispatched.
func (k *Kernel) SetTimeLimit(t Time) { k.maxTime = t }

// Errors reported by Run.
var (
	ErrTimeLimit = errors.New("sim: virtual time limit exceeded")
	ErrReentrant = errors.New("sim: Run called reentrantly")
)

// alloc returns a usable arena slot index, recycling freed slots.
func (k *Kernel) alloc() int32 {
	if n := len(k.free); n > 0 {
		idx := k.free[n-1]
		k.free = k.free[:n-1]
		return idx
	}
	k.arena = append(k.arena, eventNode{gen: 1})
	return int32(len(k.arena) - 1)
}

// freeNode recycles a slot that left the queue, invalidating handles.
func (k *Kernel) freeNode(idx int32) {
	n := &k.arena[idx]
	n.gen++
	if n.gen == 0 { // generation wrap: keep 0 reserved for the zero Event
		n.gen = 1
	}
	n.afn, n.arg = nil, nil
	k.free = append(k.free, idx)
}

// slotAppend links node idx, due at t, to the tail of t's near-wheel
// slot. The caller guarantees now <= t < front.
func (k *Kernel) slotAppend(idx int32, t Time) {
	s := uint(t) & wheelMask
	k.arena[idx].next = 0
	sl := &k.slots[s]
	if sl.head == 0 {
		sl.head = idx
		k.occ[s>>6] |= 1 << (s & 63)
		k.sum[s>>12] |= 1 << (s >> 6 & 63)
	} else {
		k.arena[sl.tail].next = idx
	}
	sl.tail = idx
}

// slotPop unlinks the head of the non-empty slot s.
func (k *Kernel) slotPop(s uint) {
	sl := &k.slots[s]
	sl.head = k.arena[sl.head].next
	if sl.head == 0 {
		w := s >> 6
		k.occ[w] &^= 1 << (s & 63)
		if k.occ[w] == 0 {
			k.sum[w>>6] &^= 1 << (w & 63)
		}
	}
}

// nextSlot returns the first occupied near-wheel slot at or after the
// clock's own in cyclic order — the slot of the earliest near event,
// since the near wheel spans at most one turn ahead of the clock — or
// -1 when the near wheel is empty.
func (k *Kernel) nextSlot() int {
	p := uint(k.now) & wheelMask
	// Same word: the events due this nanosecond or within the next 63.
	if b := k.occ[p>>6] >> (p & 63); b != 0 {
		return int(p) + bits.TrailingZeros64(b)
	}
	return k.nextSlotFar(p >> 6)
}

// nextSlotFar continues nextSlot's search past occupancy word w: the
// rest of w's summary word, then the other summary words in cyclic
// order, ending on w's own (where only earlier words, and last of all
// the low bits of w itself, can still be set).
func (k *Kernel) nextSlotFar(w uint) int {
	q := (w + 1) & (wheelWords - 1)
	j := q >> 6
	b := k.sum[j] >> (q & 63)
	if b != 0 {
		w = q + uint(bits.TrailingZeros64(b))
		return int(w<<6) + bits.TrailingZeros64(k.occ[w])
	}
	for i := 0; i < sumWords; i++ {
		j = (j + 1) & (sumWords - 1)
		if b = k.sum[j]; b != 0 {
			w = j<<6 + uint(bits.TrailingZeros64(b))
			return int(w<<6) + bits.TrailingZeros64(k.occ[w])
		}
	}
	return -1
}

// farAppend links node idx, due at t, to the tail of t's far-wheel slot.
// The caller guarantees front <= t < front+farSpan.
func (k *Kernel) farAppend(idx int32, t Time) {
	s := uint(t>>farShift) & farMask
	k.arena[idx].next = 0
	sl := &k.far[s]
	if sl.head == 0 {
		sl.head = idx
		k.farOcc[s>>6] |= 1 << (s & 63)
		k.farSum |= 1 << (s >> 6)
	} else {
		k.arena[sl.tail].next = idx
	}
	sl.tail = idx
}

// farUnlink removes node idx, whose predecessor in the chain is prev
// (0 when idx is the head), from the far slot s.
func (k *Kernel) farUnlink(s uint, idx, prev int32) {
	sl := &k.far[s]
	next := k.arena[idx].next
	if prev == 0 {
		sl.head = next
	} else {
		k.arena[prev].next = next
	}
	if next == 0 {
		sl.tail = prev
	}
	if sl.head == 0 {
		k.farClear(s)
	}
}

// farClear marks the (emptied) far slot s unoccupied.
func (k *Kernel) farClear(s uint) {
	w := s >> 6
	k.farOcc[w] &^= 1 << (s & 63)
	if k.farOcc[w] == 0 {
		k.farSum &^= 1 << w
	}
}

// nextFarSlot returns the first occupied far slot at or after slot p in
// cyclic order, or -1 when the far wheel is empty. With p the slot of
// the frontier (the far wheel spans exactly one turn past it) that is
// the slot holding the earliest far event.
func (k *Kernel) nextFarSlot(p uint) int {
	w := p >> 6
	if b := k.farOcc[w] >> (p & 63); b != 0 {
		return int(p) + bits.TrailingZeros64(b)
	}
	// The words after w, then — wrapping — those up to and including w
	// itself, where only the bits below p can still be set.
	b := k.farSum >> (w + 1) << (w + 1)
	if b == 0 {
		b = k.farSum
	}
	if b == 0 {
		return -1
	}
	w = uint(bits.TrailingZeros64(b))
	return int(w<<6) + bits.TrailingZeros64(k.farOcc[w])
}

// farMin returns the earliest event of the far wheel — the first
// minimum, in chain order, of the first occupied slot past the
// frontier — with the slot and the chain predecessor farUnlink needs,
// reclaiming every cancelled node of the chains it walks. It returns
// index 0 when the far wheel holds no live event.
func (k *Kernel) farMin() (idx int32, slot uint, prev int32) {
	for {
		s := k.nextFarSlot(uint(k.front>>farShift) & farMask)
		if s < 0 {
			return 0, 0, 0
		}
		slot = uint(s)
		var p int32 // last node kept: the predecessor of the one under the cursor
		for i := k.far[slot].head; i != 0; {
			n := &k.arena[i]
			next := n.next
			if n.afn == nil {
				k.farUnlink(slot, i, p)
				k.freeNode(i)
			} else {
				if idx == 0 || n.when < k.arena[idx].when {
					idx, prev = i, p
				}
				p = i
			}
			i = next
		}
		if idx != 0 {
			return idx, slot, prev
		}
	}
}

// push inserts an entry into the overflow heap.
func (k *Kernel) push(e heapEntry) {
	k.heap = append(k.heap, e)
	k.siftUp(len(k.heap) - 1)
}

// popMin removes the heap root (callers read heap[0] first).
func (k *Kernel) popMin() {
	last := len(k.heap) - 1
	k.heap[0] = k.heap[last]
	k.heap = k.heap[:last]
	if last > 0 {
		k.siftDown(0)
	}
}

func (k *Kernel) siftUp(i int) {
	e := k.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(e, k.heap[parent]) {
			break
		}
		k.heap[i] = k.heap[parent]
		i = parent
	}
	k.heap[i] = e
}

func (k *Kernel) siftDown(i int) {
	e := k.heap[i]
	n := len(k.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if entryLess(k.heap[c], k.heap[min]) {
				min = c
			}
		}
		if !entryLess(k.heap[min], e) {
			break
		}
		k.heap[i] = k.heap[min]
		i = min
	}
	k.heap[i] = e
}

// advance moves the frontier up to the clock that dispatch just set,
// and with it every event that changes tier: the far slots front passed
// empty into their near slots in chain order, then the overflow events
// the far wheel now covers leave the heap in (when, seq) order. dispatch
// calls it before running the handler, so nothing scheduled later can
// get in front of a migrated event (see the package comment).
func (k *Kernel) advance() {
	front := (k.now + wheelSize) &^ (farGrain - 1)
	if front <= k.front {
		// Unchanged. (Or the clock is within a wheel turn of MaxTime and
		// the sum wrapped: a frontier that stops moving costs speed, not
		// order — the far wheel and the heap then feed dispatch directly.)
		return
	}
	old := uint(k.front>>farShift) & farMask
	k.front = front
	// Every far event lies within one turn of the old frontier, so cyclic
	// slot order from there is time order; a slot's events share one
	// farGrain range, which front — a multiple of farGrain — has passed
	// whole or not at all.
	for {
		s := k.nextFarSlot(old)
		if s < 0 || k.arena[k.far[s].head].when >= front {
			break
		}
		for i := k.far[s].head; i != 0; {
			n := &k.arena[i]
			next := n.next
			if n.afn == nil {
				k.freeNode(i)
			} else {
				k.slotAppend(i, n.when)
			}
			i = next
		}
		k.far[s] = wheelSlot{}
		k.farClear(uint(s))
	}
	for len(k.heap) > 0 && k.heap[0].when-front < farSpan {
		e := k.heap[0]
		k.popMin()
		switch {
		case k.arena[e.idx].afn == nil:
			k.freeNode(e.idx)
		case e.when < front: // the clock jumped more than farSpan
			k.slotAppend(e.idx, e.when)
		default:
			k.farAppend(e.idx, e.when)
		}
	}
}

// schedule allocates, initializes and enqueues one event node.
func (k *Kernel) schedule(t Time, afn func(any), arg any, p Payload) Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, k.now))
	}
	if afn == nil {
		panic("sim: nil callback") // a nil afn marks a cancelled node
	}
	idx := k.alloc()
	n := &k.arena[idx]
	n.when = t
	n.seq = k.seq
	n.afn, n.arg, n.p = afn, arg, p
	k.seq++
	k.live++
	switch {
	case t < k.front:
		k.slotAppend(idx, t)
	case t-k.front < farSpan:
		k.farAppend(idx, t)
	default:
		k.push(heapEntry{when: t, seq: n.seq, idx: idx})
	}
	return Event{idx: idx, gen: n.gen}
}

// At schedules fn to run at the absolute virtual time t. Scheduling in
// the past (t < Now) is a programming error and panics: in a
// discrete-event simulation causality violations are bugs, not
// recoverable conditions.
func (k *Kernel) At(t Time, fn func()) Event {
	return k.schedule(t, callFunc, fn, Payload{})
}

// After schedules fn to run d after the current virtual time.
func (k *Kernel) After(d Duration, fn func()) Event {
	return k.schedule(k.later(d), callFunc, fn, Payload{})
}

// AfterArg schedules fn(arg) to run d after the current virtual time.
// Unlike After, a caller on a hot path can reuse one fn value for many
// events and vary only the argument, avoiding a closure allocation per
// event. Passing a pointer type as arg stays allocation-free;
// non-pointer values may be boxed by the runtime.
func (k *Kernel) AfterArg(d Duration, fn func(any), arg any) Event {
	return k.schedule(k.later(d), fn, arg, Payload{})
}

// AtPayload schedules fn(arg) at the absolute virtual time t, as
// AfterArg does after a delay, with a payload stored in the event's own
// node, which fn reads with Payload: two words of data cost no object.
// A zero payload schedules a plain fn(arg) event.
func (k *Kernel) AtPayload(t Time, fn func(any), arg any, p Payload) Event {
	return k.schedule(t, fn, arg, p)
}

// AfterPayload is AfterArg with a payload; see AtPayload.
func (k *Kernel) AfterPayload(d Duration, fn func(any), arg any, p Payload) Event {
	return k.schedule(k.later(d), fn, arg, p)
}

// Payload returns the payload of the event being dispatched (zero for
// one scheduled without). It is valid until the callback returns or
// dispatches another event.
func (k *Kernel) Payload() Payload { return k.payload }

// later returns the instant d after now, refusing a negative d.
func (k *Kernel) later(d Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return k.now.Add(d)
}

// node resolves a handle to its arena slot, or nil when the handle is
// stale (dispatched, cancelled, recycled) or zero.
func (k *Kernel) node(e Event) *eventNode {
	if e.gen == 0 || int(e.idx) >= len(k.arena) {
		return nil
	}
	n := &k.arena[e.idx]
	if n.gen != e.gen {
		return nil
	}
	return n
}

// Cancel marks an event so it will be skipped when its time comes; the
// queue node is reclaimed lazily when it surfaces at the front of its tier.
// Cancelling an already-dispatched, already-cancelled or zero Event is
// a no-op.
func (k *Kernel) Cancel(e Event) {
	n := k.node(e)
	if n == nil || n.afn == nil {
		return
	}
	n.afn, n.arg = nil, nil
	k.live--
}

// Live reports whether e is still queued and not cancelled.
func (k *Kernel) Live(e Event) bool {
	n := k.node(e)
	return n != nil && n.afn != nil
}

// When returns the scheduled time of a live or cancelled-but-queued
// event, and false for a stale handle.
func (k *Kernel) When(e Event) (Time, bool) {
	n := k.node(e)
	if n == nil {
		return 0, false
	}
	return n.when, true
}

// Stop makes Run return after the currently executing event completes.
// Pending events remain queued.
func (k *Kernel) Stop() { k.stopped = true }

// A queued node's place, as peek reports it and unqueue consumes it: a
// near-wheel slot index (>= 0), or one of these.
const (
	inFar  = -1 // at (farSlot, farPrev) in the far wheel
	inHeap = -2 // the overflow root
)

// peek returns the arena index of the earliest live event and its place
// in the queue — the near-wheel slot it heads, or inFar or inHeap; for
// inFar the far slot and chain predecessor follow — reclaiming the
// cancelled nodes that surface on the way. It returns index 0 when no
// live event is queued. The tiers partition time, so the earliest event
// is in the first non-empty one.
func (k *Kernel) peek() (idx int32, at int, farSlot uint, farPrev int32) {
	for k.live > 0 {
		if at = k.nextSlot(); at >= 0 {
			idx = k.slots[at].head
		} else if idx, farSlot, farPrev = k.farMin(); idx != 0 {
			return idx, inFar, farSlot, farPrev
		} else {
			idx, at = k.heap[0].idx, inHeap
		}
		if k.arena[idx].afn != nil {
			return idx, at, 0, 0
		}
		k.unqueue(idx, at, 0, 0)
		k.freeNode(idx)
	}
	return 0, inHeap, 0, 0
}

// unqueue removes the node peek just reported from its tier.
func (k *Kernel) unqueue(idx int32, at int, farSlot uint, farPrev int32) {
	switch at {
	case inFar:
		k.farUnlink(farSlot, idx, farPrev)
	case inHeap:
		k.popMin()
	default:
		k.slotPop(uint(at))
	}
}

// dispatch runs the earliest live event if it is due no later than last
// and within the time limit. It reports whether an event ran; a false
// return carries ErrTimeLimit when the limit refused the event, or nil
// when the queue is empty or the event lies beyond last. A refused event stays
// queued so state remains inspectable.
func (k *Kernel) dispatch(last Time) (bool, error) {
	idx, at, farSlot, farPrev := k.peek()
	if idx == 0 {
		return false, nil
	}
	n := &k.arena[idx]
	if n.when > last {
		return false, nil
	}
	if n.when > k.maxTime {
		return false, ErrTimeLimit
	}
	k.unqueue(idx, at, farSlot, farPrev)
	k.now = n.when
	k.advance()
	k.dispatched++
	k.live--
	afn, arg := n.afn, n.arg
	k.payload = n.p
	k.freeNode(idx)
	afn(arg)
	return true, nil
}

// run dispatches events due no later than last until none is left, Stop
// is called, or the time limit refuses one.
func (k *Kernel) run(last Time) error {
	if k.running {
		return ErrReentrant
	}
	k.running = true
	k.stopped = false
	defer func() { k.running = false }()

	for !k.stopped {
		if ok, err := k.dispatch(last); !ok {
			return err
		}
	}
	return nil
}

// Run dispatches events in virtual-time order until the queue is empty,
// Stop is called, or the time limit is exceeded. It returns nil on normal
// completion (queue drained or stopped).
func (k *Kernel) Run() error { return k.run(MaxTime) }

// PeekTime returns the virtual time of the next non-cancelled event and
// true, or (0, false) when the queue is empty. Cancelled nodes that
// surface on the way are reclaimed, so the call is amortized O(1) and
// semantically read-only.
func (k *Kernel) PeekTime() (Time, bool) {
	idx, _, _, _ := k.peek()
	if idx == 0 {
		return 0, false
	}
	return k.arena[idx].when, true
}

// RunUntil dispatches events in virtual-time order while the next event's
// time is strictly before end, then returns nil with later events left
// queued. The clock is NOT advanced to end: Now() stays at the last
// dispatched event so late-scheduled events inside a subsequent window
// remain valid. The time limit behaves as in Run: ErrTimeLimit when the
// next in-window event lies beyond it (event left queued). RunUntil is the
// per-window building block of the sharded kernel (sim/par), which owns
// choosing end so that no cross-shard influence can arrive before it.
func (k *Kernel) RunUntil(end Time) error {
	if k.running {
		return ErrReentrant
	}
	if end <= k.now {
		return nil // every queued event is due at or after now
	}
	return k.run(end - 1)
}

// Step dispatches the next non-cancelled event, if any, and reports
// whether one was dispatched. Useful in tests for lock-step inspection.
// Step honors the same time limit as Run: an event that Run
// would refuse to dispatch makes Step return false without dispatching.
func (k *Kernel) Step() bool {
	ok, _ := k.dispatch(MaxTime)
	return ok
}
