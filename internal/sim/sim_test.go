package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEmptyRun(t *testing.T) {
	k := NewKernel()
	if err := k.Run(); err != nil {
		t.Fatalf("Run on empty kernel: %v", err)
	}
	if k.Now() != 0 {
		t.Fatalf("clock moved on empty run: %v", k.Now())
	}
	if k.Dispatched() != 0 {
		t.Fatalf("dispatched %d events on empty run", k.Dispatched())
	}
}

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("got order %v, want %v", got, want)
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(42, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-time events dispatched out of scheduling order: %v", got)
	}
	if k.Now() != 42 {
		t.Fatalf("clock = %d, want 42", k.Now())
	}
}

func TestAfterAccumulates(t *testing.T) {
	k := NewKernel()
	var times []Time
	var step func()
	step = func() {
		times = append(times, k.Now())
		if len(times) < 5 {
			k.After(7, step)
		}
	}
	k.After(7, step)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, ts := range times {
		if want := Time(7 * (i + 1)); ts != want {
			t.Fatalf("step %d at %d, want %d", i, ts, want)
		}
	}
}

func TestSchedulingInsideEvent(t *testing.T) {
	k := NewKernel()
	ran := false
	k.At(10, func() {
		// An event may schedule another event at the same timestamp;
		// it must run after the current one.
		k.At(10, func() { ran = true })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("same-time event scheduled from handler did not run")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(50, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("negative After delay did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	ran := false
	e := k.At(10, func() { ran = true })
	if !k.Live(e) {
		t.Fatal("Live = false for a queued event")
	}
	k.Cancel(e)
	if k.Live(e) {
		t.Fatal("Live = true after Cancel")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
}

// TestEventNodeOneLine pins the arena slot at one 64-byte cache line
// with its payload inside it: a delivery reads its message header from
// the node it dispatches, not from a second line.
func TestEventNodeOneLine(t *testing.T) {
	var n eventNode
	if size := unsafe.Sizeof(n); size != 64 {
		t.Errorf("eventNode is %d bytes, want 64", size)
	}
	if end := unsafe.Offsetof(n.p) + unsafe.Sizeof(n.p); end > 64 {
		t.Errorf("the payload ends at byte %d, outside the node's line", end)
	}
}

// TestPayloadReachesItsCallback: every event hands its own payload to
// its callback — also one callback shared by events at one instant, and
// whichever tier held it — and events scheduled without one read zero.
func TestPayloadReachesItsCallback(t *testing.T) {
	k := NewKernel()
	var got []Payload
	record := func(any) { got = append(got, k.Payload()) }
	var want []Payload
	for i, d := range []Duration{5, 5, wheelSize + 3, farSpan + wheelSize + 9} {
		p := Payload{A: uint64(i) + 1, B: ^uint64(i)}
		k.AfterPayload(d, record, nil, p)
		want = append(want, p)
	}
	k.AtPayload(farSpan*3, record, nil, Payload{})
	k.At(farSpan*4, func() { got = append(got, k.Payload()) })
	want = append(want, Payload{}, Payload{})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("callbacks read payloads %v, want %v", got, want)
	}
}

func TestNilCallbackPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("scheduling a nil callback did not panic")
		}
	}()
	k.AfterArg(1, nil, nil)
}

func TestCancelZeroIsNoop(t *testing.T) {
	k := NewKernel()
	k.Cancel(Event{}) // must not panic
	if k.Live(Event{}) {
		t.Fatal("zero Event reported live")
	}
}

func TestStaleHandleIsNoop(t *testing.T) {
	k := NewKernel()
	e := k.At(10, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// e now refers to a recycled slot. Both queries and Cancel must be
	// harmless no-ops, even after the slot is reused.
	if k.Live(e) {
		t.Fatal("dispatched event reported live")
	}
	ran := false
	e2 := k.At(20, func() { ran = true })
	k.Cancel(e) // stale: must not hit e2's recycled slot
	if !k.Live(e2) {
		t.Fatal("stale Cancel killed the slot's new occupant")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event cancelled through a stale handle")
	}
	if _, ok := k.When(e2); ok {
		t.Fatal("When reported a time for a dispatched event")
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.At(Time(i), func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("ran %d events after Stop at 3", count)
	}
	if k.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", k.Pending())
	}
}

func TestRunResumesAfterStop(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 4; i++ {
		k.At(Time(i), func() {
			count++
			if count == 2 {
				k.Stop()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("count = %d after resume, want 4", count)
	}
}

func TestTimeLimit(t *testing.T) {
	k := NewKernel()
	k.SetTimeLimit(100)
	ran200 := false
	k.At(50, func() {})
	k.At(200, func() { ran200 = true })
	if err := k.Run(); err != ErrTimeLimit {
		t.Fatalf("err = %v, want ErrTimeLimit", err)
	}
	if ran200 {
		t.Fatal("event beyond time limit ran")
	}
	if k.Now() != 50 {
		t.Fatalf("clock = %d, want 50", k.Now())
	}
}

func TestStep(t *testing.T) {
	k := NewKernel()
	order := []int{}
	k.At(1, func() { order = append(order, 1) })
	k.At(2, func() { order = append(order, 2) })
	if !k.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("after one step: %v", order)
	}
	if !k.Step() {
		t.Fatal("second Step returned false")
	}
	if k.Step() {
		t.Fatal("Step returned true with empty queue")
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{500, "500ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000000s"},
		{-1, "-1ns"},
		{-999, "-999ns"},
		{-1500, "-1.500µs"},
		{-5 * Millisecond, "-5.000ms"},
		{-3 * Second, "-3.000000s"},
		{math.MinInt64, "-9223372036.854776s"},
		{math.MaxInt64, "9223372036.854776s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	var ts Time = 100
	if ts.Add(50) != 150 {
		t.Fatal("Add")
	}
	if Time(150).Sub(ts) != 50 {
		t.Fatal("Sub")
	}
	if Duration(1500000000).Seconds() != 1.5 {
		t.Fatal("Duration.Seconds")
	}
	if Time(2500000000).Seconds() != 2.5 {
		t.Fatal("Time.Seconds")
	}
}

// Property: dispatch order is a stable sort of (time, scheduling order)
// regardless of insertion order.
func TestPropertyDispatchOrderIsSorted(t *testing.T) {
	f := func(times []uint16) bool {
		k := NewKernel()
		type stamp struct {
			at  Time
			seq int
		}
		var got []stamp
		for i, tm := range times {
			i, at := i, Time(tm)
			k.At(at, func() { got = append(got, stamp{at, i}) })
		}
		if err := k.Run(); err != nil {
			return false
		}
		if len(got) != len(times) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset runs exactly the complement.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(times []uint8, mask uint64) bool {
		k := NewKernel()
		ran := make(map[int]bool)
		events := make([]Event, len(times))
		for i, tm := range times {
			i := i
			events[i] = k.At(Time(tm), func() { ran[i] = true })
		}
		cancelled := make(map[int]bool)
		for i := range events {
			if mask&(1<<(uint(i)%64)) != 0 && i%3 == 0 {
				k.Cancel(events[i])
				cancelled[i] = true
			}
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i := range times {
			if ran[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a heavy randomized schedule advances the clock monotonically.
func TestPropertyMonotonicClock(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := NewKernel()
	last := Time(-1)
	var spawn func()
	spawn = func() {
		if k.Now() < last {
			t.Fatalf("clock went backwards: %d after %d", k.Now(), last)
		}
		last = k.Now()
		if k.Dispatched() < 5000 {
			k.After(Duration(rng.Intn(100)), spawn)
			if rng.Intn(4) == 0 {
				k.After(Duration(rng.Intn(100)), spawn)
			}
		}
	}
	k.After(0, spawn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKernelScheduleDispatch(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	var next func()
	n := 0
	next = func() {
		n++
		if n < b.N {
			k.After(1, next)
		}
	}
	k.After(1, next)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
