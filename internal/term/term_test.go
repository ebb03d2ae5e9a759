package term

import (
	"testing"
	"testing/quick"

	"distws/internal/rng"
)

// pumpQueue delivers queued token sends until quiescent or a step
// budget is exhausted, returning any undelivered sends. idle reports
// each rank's state at delivery time.
func pumpQueue(d Detector, sends []Send, idle func(rank int) bool, maxSteps int) []Send {
	queue := append([]Send(nil), sends...)
	for steps := 0; len(queue) > 0 && steps < maxSteps; steps++ {
		s := queue[0]
		queue = queue[1:]
		queue = append(queue, d.OnToken(s.To, s.Token, idle(s.To))...)
	}
	return queue
}

// pump is pumpQueue discarding leftovers; reports whether it settled.
func pump(d Detector, sends []Send, idle func(rank int) bool, maxSteps int) bool {
	return len(pumpQueue(d, sends, idle, maxSteps)) == 0
}

func TestDetectorsTerminateWhenAllIdle(t *testing.T) {
	for name, factory := range Detectors {
		for _, n := range []int{1, 2, 3, 8, 64} {
			d := factory(n)
			allIdle := func(int) bool { return true }
			var sends []Send
			for rank := 0; rank < n; rank++ {
				sends = append(sends, d.OnIdle(rank)...)
			}
			if !pump(d, sends, allIdle, 10*n+10) {
				t.Fatalf("%s n=%d: token never settled", name, n)
			}
			if !d.Terminated() {
				t.Fatalf("%s n=%d: no termination with all ranks idle", name, n)
			}
			if d.Rounds() < 1 {
				t.Fatalf("%s n=%d: %d rounds", name, n, d.Rounds())
			}
		}
	}
}

func TestNoTerminationWhileActive(t *testing.T) {
	for name, factory := range Detectors {
		d := factory(4)
		busy := map[int]bool{2: true}
		idle := func(r int) bool { return !busy[r] }
		sends := d.OnIdle(0)
		// Token reaches rank 2 and parks there; no termination.
		pump(d, sends, idle, 100)
		if d.Terminated() {
			t.Fatalf("%s: terminated while rank 2 active", name)
		}
		// Rank 2 goes idle: round completes (and possibly more rounds).
		sends = d.OnIdle(2)
		busy[2] = false
		if !pump(d, sends, idle, 100) {
			t.Fatalf("%s: token stuck after rank 2 idled", name)
		}
		if !d.Terminated() {
			t.Fatalf("%s: no termination after all idle", name)
		}
	}
}

func TestSafraInFlightMessageBlocksTermination(t *testing.T) {
	// Rank 1 sent a work message that rank 3 has not received yet.
	// Safra must NOT terminate until the receive is recorded.
	d := NewSafra(4)
	d.WorkSent(1)
	allIdle := func(int) bool { return true }
	var sends []Send
	for rank := 0; rank < 4; rank++ {
		sends = append(sends, d.OnIdle(rank)...)
	}
	leftover := pumpQueue(d, sends, allIdle, 200)
	if d.Terminated() {
		t.Fatal("Safra terminated with message count nonzero")
	}
	if len(leftover) == 0 {
		t.Fatal("token stopped circulating with an undelivered work message")
	}
	// Deliver the message; the still-circulating token must now settle
	// into termination within a few rounds.
	d.WorkReceived(3)
	if !pump(d, leftover, allIdle, 500) {
		t.Fatal("token never settled after delivery")
	}
	if !d.Terminated() {
		t.Fatal("Safra did not terminate after message delivered")
	}
}

func TestSafraBalancedTrafficTerminates(t *testing.T) {
	d := NewSafra(3)
	// A balanced exchange: 0 -> 1 and 1 -> 2 work messages, delivered.
	d.WorkSent(0)
	d.WorkReceived(1)
	d.WorkSent(1)
	d.WorkReceived(2)
	allIdle := func(int) bool { return true }
	var sends []Send
	for rank := 0; rank < 3; rank++ {
		sends = append(sends, d.OnIdle(rank)...)
	}
	if !pump(d, sends, allIdle, 300) {
		t.Fatal("token never settled")
	}
	if !d.Terminated() {
		t.Fatal("no termination despite balanced traffic")
	}
	// Receivers were black, so at least two rounds were needed.
	if d.Rounds() < 2 {
		t.Fatalf("terminated in %d rounds; black receivers must force a second round", d.Rounds())
	}
}

func TestTokenParksOnActiveRank(t *testing.T) {
	for name, factory := range Detectors {
		d := factory(3)
		sends := d.OnIdle(0)
		if len(sends) != 1 || sends[0].To != 1 {
			t.Fatalf("%s: rank 0 emitted %v", name, sends)
		}
		// Deliver to busy rank 1: token parks.
		out := d.OnToken(1, sends[0].Token, false)
		if len(out) != 0 {
			t.Fatalf("%s: busy rank forwarded token", name)
		}
		// Rank 1 goes idle: token moves on.
		out = d.OnIdle(1)
		if len(out) != 1 || out[0].To != 2 {
			t.Fatalf("%s: parked token not released: %v", name, out)
		}
	}
}

func TestNoCallsAfterTermination(t *testing.T) {
	for name, factory := range Detectors {
		d := factory(2)
		allIdle := func(int) bool { return true }
		sends := append(d.OnIdle(0), d.OnIdle(1)...)
		pump(d, sends, allIdle, 100)
		if !d.Terminated() {
			t.Fatalf("%s: setup failed", name)
		}
		if out := d.OnIdle(0); len(out) != 0 {
			t.Fatalf("%s: emitted after termination", name)
		}
		if out := d.OnToken(1, Token{}, true); len(out) != 0 {
			t.Fatalf("%s: forwarded after termination", name)
		}
	}
}

func TestNewPanicsOnZeroRanks(t *testing.T) {
	for name, factory := range Detectors {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic for 0 ranks", name)
				}
			}()
			factory(0)
		}()
	}
}

// Property (Safra safety): under randomized traffic where every sent
// message is eventually received, Safra terminates only after all
// messages are delivered, and does terminate once they are.
func TestPropertySafraSafeAndLive(t *testing.T) {
	f := func(seed uint64, nRaw uint8, traffic []uint8) bool {
		n := int(nRaw%8) + 2
		d := NewSafra(n)
		r := rng.New(seed)
		// Random delivered message pairs.
		inFlight := 0
		for _, tr := range traffic {
			from := int(tr) % n
			to := (from + 1 + r.Intn(n-1)) % n
			d.WorkSent(from)
			if r.Intn(4) != 0 {
				d.WorkReceived(to)
			} else {
				inFlight++
			}
		}
		allIdle := func(int) bool { return true }
		var sends []Send
		for rank := 0; rank < n; rank++ {
			sends = append(sends, d.OnIdle(rank)...)
		}
		// Bounded pumping: with in-flight messages Safra must never
		// terminate (the token just keeps circulating); once every
		// message is delivered it must terminate within a few rounds.
		pump(d, sends, allIdle, 50*n+100)
		if inFlight > 0 {
			return !d.Terminated()
		}
		return d.Terminated()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNamesAndColors(t *testing.T) {
	if NewSafra(2).Name() != "Safra" || NewRing(2).Name() != "Ring" {
		t.Fatal("detector names")
	}
	if White.String() != "white" || Black.String() != "black" {
		t.Fatal("color names")
	}
}

func TestRingWorkTaintsRound(t *testing.T) {
	// A rank that sent or received work since the last token visit
	// taints the round: the first circulation must not terminate.
	d := NewRing(3)
	d.WorkSent(1)
	d.WorkReceived(2)
	allIdle := func(int) bool { return true }
	sends := d.OnIdle(0)
	// One full round: 0 -> 1 -> 2 -> 0. Deliver exactly 3 hops.
	for hop := 0; hop < 3 && len(sends) > 0; hop++ {
		s := sends[0]
		sends = d.OnToken(s.To, s.Token, allIdle(s.To))
	}
	if d.Terminated() {
		t.Fatal("ring terminated on a tainted round")
	}
	// The second, clean round terminates.
	if !pump(d, sends, allIdle, 20) {
		t.Fatal("token stuck")
	}
	if !d.Terminated() {
		t.Fatal("ring did not terminate after a clean round")
	}
	if d.Rounds() < 2 {
		t.Fatalf("rounds = %d, want >= 2", d.Rounds())
	}
}

// TestTokenHopsAllocFree pins the aliasing rule on Detector: the sends
// a hop returns are the detector's own scratch, so circulating the
// token allocates nothing — and the slice a call returned is overwritten
// by the next call, which is why callers must consume it first.
func TestTokenHopsAllocFree(t *testing.T) {
	for name, factory := range Detectors {
		const n = 8
		d := factory(n)
		d.WorkSent(1) // an unmatched send taints every round: never terminates
		sends := d.OnIdle(0)
		if len(sends) != 1 {
			t.Fatalf("%s: initiator emitted %d sends, want 1", name, len(sends))
		}
		first := &sends[0]
		hop := *first
		allocs := testing.AllocsPerRun(50, func() {
			for i := 0; i < n; i++ { // one full round, back through the initiator
				d.WorkSent(1)
				out := d.OnToken(hop.To, hop.Token, true)
				if len(out) != 1 {
					t.Fatalf("%s: hop at rank %d returned %d sends, want 1", name, hop.To, len(out))
				}
				if &out[0] != first {
					t.Fatalf("%s: hop returned fresh storage instead of the detector's scratch", name)
				}
				hop = out[0]
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: a token round allocates %.1f times, want 0", name, allocs)
		}
		if d.Terminated() {
			t.Fatalf("%s: terminated with unmatched work messages", name)
		}
	}
}
