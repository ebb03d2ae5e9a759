package sim

import (
	"errors"
	"fmt"
	"testing"
)

func TestPeekTime(t *testing.T) {
	k := NewKernel()
	if _, ok := k.PeekTime(); ok {
		t.Fatal("empty kernel: PeekTime reported an event")
	}
	e5 := k.At(5, func() {})
	k.At(9, func() {})
	if tm, ok := k.PeekTime(); !ok || tm != 5 {
		t.Fatalf("PeekTime = (%d, %v), want (5, true)", tm, ok)
	}
	// Cancelling the root must make PeekTime report the next live event,
	// reclaiming the cancelled node on the way.
	k.Cancel(e5)
	if tm, ok := k.PeekTime(); !ok || tm != 9 {
		t.Fatalf("after cancel: PeekTime = (%d, %v), want (9, true)", tm, ok)
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", k.Pending())
	}
}

func TestRunUntilWindowing(t *testing.T) {
	k := NewKernel()
	var fired []Time
	note := func() { fired = append(fired, k.Now()) }
	for _, tm := range []Time{3, 7, 10, 15} {
		tm := tm
		k.At(tm, note)
	}
	// Events strictly before the window end run; the boundary event does
	// not, and the clock stays at the last dispatched event.
	if err := k.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 7 {
		t.Fatalf("window [0,10): fired %v, want [3 7]", fired)
	}
	if k.Now() != 7 {
		t.Fatalf("Now = %d, want 7 (not advanced to window end)", k.Now())
	}
	// Same-window chains: an event scheduling another event inside the
	// window runs it in the same call.
	k.At(11, func() {
		note()
		k.At(12, note)
	})
	if err := k.RunUntil(13); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 5 || fired[2] != 10 || fired[3] != 11 || fired[4] != 12 {
		t.Fatalf("window [7,13): fired %v, want [... 10 11 12]", fired)
	}
	if err := k.RunUntil(MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 6 || fired[5] != 15 {
		t.Fatalf("final window: fired %v", fired)
	}
}

func TestRunUntilHonorsLimits(t *testing.T) {
	k := NewKernel()
	k.SetTimeLimit(5)
	k.At(4, func() {})
	k.At(6, func() {})
	if err := k.RunUntil(10); !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("RunUntil = %v, want ErrTimeLimit", err)
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d, want the over-limit event left queued", k.Pending())
	}

	k2 := NewKernel()
	k2.SetEventLimit(1)
	k2.At(1, func() {})
	k2.At(2, func() {})
	if err := k2.RunUntil(10); !errors.Is(err, ErrEventLimit) {
		t.Fatalf("RunUntil = %v, want ErrEventLimit", err)
	}
}

func TestRunUntilReentrant(t *testing.T) {
	k := NewKernel()
	var inner error
	k.At(1, func() { inner = k.RunUntil(5) })
	if err := k.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(inner, ErrReentrant) {
		t.Fatalf("nested RunUntil = %v, want ErrReentrant", inner)
	}
}

// TestRunUntilMatchesRun replays the same schedule through Run and
// through a sequence of fixed-width RunUntil windows and requires the
// identical dispatch order — the shards=1 equivalence argument for the
// windowed kernel rests on this.
func TestRunUntilMatchesRun(t *testing.T) {
	build := func(k *Kernel, log *[]Time) {
		rec := func() { *log = append(*log, k.Now()) }
		for i := 0; i < 40; i++ {
			tm := Time((i * 37) % 100)
			k.At(tm, rec)
		}
		k.At(50, func() {
			rec()
			k.At(55, rec)
			k.After(0, rec)
		})
	}
	var seq, win []Time
	ks := NewKernel()
	build(ks, &seq)
	if err := ks.Run(); err != nil {
		t.Fatal(err)
	}
	kw := NewKernel()
	build(kw, &win)
	for end := Time(7); ; end += 7 {
		if err := kw.RunUntil(end); err != nil {
			t.Fatal(err)
		}
		if kw.Pending() == 0 {
			break
		}
	}
	if len(seq) != len(win) {
		t.Fatalf("Run dispatched %d, windowed %d", len(seq), len(win))
	}
	for i := range seq {
		if seq[i] != win[i] {
			t.Fatalf("dispatch %d: Run at %d, windowed at %d", i, seq[i], win[i])
		}
	}
}

// TestScheduleEarlierAfterPeek: PeekTime and a RunUntil window that ends
// short of the next event look into the far wheel and the heap without
// moving the clock or the frontier, so events scheduled afterwards for
// earlier instants — the sharded kernel stages cross-shard messages
// after a window returns — still find their tier and run first.
func TestScheduleEarlierAfterPeek(t *testing.T) {
	k := NewKernel()
	defer k.Release()
	var fired []Time
	note := func() { fired = append(fired, k.Now()) }
	const far, overflow = Time(3 * Millisecond), Time(7 * Millisecond)
	k.At(overflow, note)
	if tm, ok := k.PeekTime(); !ok || tm != overflow {
		t.Fatalf("PeekTime = (%d, %v), want the overflow event at %d", tm, ok, overflow)
	}
	k.At(far, note)
	if tm, ok := k.PeekTime(); !ok || tm != far {
		t.Fatalf("PeekTime = (%d, %v), want the far event at %d", tm, ok, far)
	}
	if err := k.RunUntil(Time(Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 0 || k.Now() != 0 {
		t.Fatalf("a window short of every event dispatched %v and left the clock at %d", fired, k.Now())
	}
	// Earlier than anything peeked: in the far wheel ahead of the peeked
	// slot, in the peeked slot itself, and in the near wheel.
	k.At(Time(500*Microsecond), note)
	k.At(far-1, note)
	k.At(10, note)
	if err := k.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if tm, ok := k.PeekTime(); !ok || tm != 10 {
		t.Fatalf("PeekTime = (%d, %v) after scheduling earlier, want 10", tm, ok)
	}
	if err := k.RunUntil(far); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(fired), fmt.Sprint([]Time{10, Time(500 * Microsecond), far - 1}); got != want {
		t.Fatalf("window [0, 3ms) fired %v, want %v", got, want)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(fired[3:]), fmt.Sprint([]Time{far, overflow}); got != want {
		t.Fatalf("the peeked events fired at %v, want %v", got, want)
	}
}
