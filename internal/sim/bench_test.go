package sim

import "testing"

// BenchmarkKernelHotPath exercises the kernel's steady-state scheduling
// loop the way the engine drives it: a population of concurrent timers
// (one per simulated rank, sharing one callback that finds its rank in
// the event's payload) that each reschedule themselves on dispatch
// about a quantum ahead, with a fifth of them cancelled and immediately
// replaced — the quantum-cancel pattern finishRank and aborting steals
// produce. The sub-benchmarks vary the number of pending events from
// the sweep scale to the paper's top rung (the per-event cost must not
// grow with it). "+far" makes every tenth timer a 100 µs steal timeout,
// which waits in the far wheel on its way to the near one. "+backoff"
// is the steal-8k endgame: every rank's timer alternates a 1 µs
// quantum with a backoff pause of 100 µs doubling to 2 ms, so half of
// all events cross the far wheel and the near wheel is often empty. The
// alloc gate (TestKernelHotPathAllocFree) requires this loop to be
// allocation-free after warm-up.
func BenchmarkKernelHotPath(b *testing.B) {
	for _, c := range []struct {
		name    string
		pending int
		far     farMix
	}{
		{"pending=64", 64, nearOnly},
		{"pending=1024", 1024, nearOnly},
		{"pending=8192", 8192, nearOnly},
		{"pending=1024+far", 1024, tenthFar},
		{"pending=8192+backoff", 8192, backoffPauses},
	} {
		b.Run(c.name, func(b *testing.B) { benchHotPath(b, c.pending, c.far) })
	}
}

// farMix selects which of a timer's firings schedule past the near wheel.
type farMix uint8

const (
	nearOnly farMix = iota
	tenthFar
	backoffPauses
)

func benchHotPath(b *testing.B, pending int, far farMix) {
	k := NewKernel()
	left := 0
	fired := make([]int, pending)
	var fire func(any)
	fire = func(any) {
		if left--; left == 0 {
			k.Stop()
		}
		p := k.Payload()
		i := int(p.A)
		delay := Microsecond + Duration(i%7)*100
		fired[i]++
		switch {
		case far == tenthFar && fired[i]%10 == 0:
			delay = 100 * Microsecond
		case far == backoffPauses && fired[i]%2 == 0:
			// The engine's backoff ladder: 100 µs doubling to the 2 ms cap.
			delay = min(100*Microsecond<<(fired[i]/2%6), 2*Millisecond) + Duration(i%7)*100
		}
		e := k.AfterPayload(delay, fire, nil, p)
		if i%5 == 0 {
			// Cancel-and-reschedule at a nearby timestamp: exercises
			// the cancellation path under load.
			k.Cancel(e)
			k.AfterPayload(delay-Duration(i%3), fire, nil, p)
		}
	}
	for i := range fired {
		k.AfterPayload(Duration(i), fire, nil, Payload{A: uint64(i)})
	}
	run := func(events int) {
		left = events
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	run(40 * pending) // arena, free list and heap at steady-state capacity
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// TestKernelHotPathAllocFree is the alloc gate for the scheduling hot
// path: after warm-up (arena and heap at steady-state capacity),
// schedule / cancel / dispatch must not allocate at all.
func TestKernelHotPathAllocFree(t *testing.T) {
	k := NewKernel()
	remaining := 0
	var fn func()
	fn = func() {
		remaining--
		if remaining > 0 {
			e := k.After(Duration(1+remaining%7), fn)
			if remaining%5 == 0 {
				k.Cancel(e)
				k.After(1, fn)
			}
		}
	}
	body := func() {
		remaining = 2000
		k.After(1, fn)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	body() // reach steady-state capacity before measuring
	if got := testing.AllocsPerRun(20, body); got != 0 {
		t.Fatalf("kernel hot path allocates %.1f allocs/run, want 0", got)
	}
}
