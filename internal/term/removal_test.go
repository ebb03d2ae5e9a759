package term

import "testing"

// Edge cases for ring healing under fail-stop rank removal. Both
// detectors must route around dead ranks, regenerate tokens lost with
// a crash, and drop stale tokens from abandoned rounds. A rank is busy
// until its first OnIdle, so a removal finds an initiator that never
// went idle busy and leaves the restart to its next OnIdle.

func TestRemoveTokenHolder(t *testing.T) {
	for name, factory := range Detectors {
		d := factory(5)
		var sends []Send
		for rank := 0; rank < 5; rank++ {
			if rank != 2 {
				sends = append(sends, d.OnIdle(rank)...)
			}
		}
		// The token parks on busy rank 2 and the ring stalls.
		if left := pumpQueue(d, sends, 100); len(left) != 0 {
			t.Fatalf("%s: token did not park on the busy rank: %v", name, left)
		}
		if d.Terminated() {
			t.Fatalf("%s: terminated while rank 2 active", name)
		}
		// Rank 2 dies holding the token: the initiator must regenerate.
		regen := d.RemoveRank(2)
		if len(regen) != 1 || regen[0].From != 0 || !regen[0].Regen {
			t.Fatalf("%s: no regenerated token from the initiator: %v", name, regen)
		}
		if regen[0].To == 2 {
			t.Fatalf("%s: regenerated token routed to the dead rank", name)
		}
		if !pump(d, regen, 100) {
			t.Fatalf("%s: regenerated token never settled", name)
		}
		if !d.Terminated() {
			t.Fatalf("%s: no termination after healing around the token holder", name)
		}
	}
}

func TestRemoveRankZeroBeforeStart(t *testing.T) {
	for name, factory := range Detectors {
		d := factory(4)
		// Rank 0 dies before any round starts: nothing to regenerate,
		// and the initiator role falls to rank 1, which is busy.
		if out := d.RemoveRank(0); len(out) != 0 {
			t.Fatalf("%s: regenerated a token before the first round: %v", name, out)
		}
		var sends []Send
		for rank := 1; rank < 4; rank++ {
			sends = append(sends, d.OnIdle(rank)...)
		}
		if len(sends) == 0 || sends[0].From != 1 {
			t.Fatalf("%s: rank 1 did not take over initiation: %v", name, sends)
		}
		if !pump(d, sends, 100) {
			t.Fatalf("%s: token never settled", name)
		}
		if !d.Terminated() {
			t.Fatalf("%s: no termination with rank 0 dead", name)
		}
	}
}

// TestRemoveRankStartsIdleInitiator: rank 0 dies before any round
// starts while rank 1, which inherits the role, is already idle. No
// OnIdle of rank 1 is coming, so the removal itself starts the first
// round from it.
func TestRemoveRankStartsIdleInitiator(t *testing.T) {
	for name, factory := range Detectors {
		d := factory(4)
		for rank := 1; rank < 4; rank++ {
			d.OnIdle(rank) // rank 0 still holds the root: nothing starts
		}
		out := d.RemoveRank(0)
		if d.Initiator() != 1 {
			t.Fatalf("%s: initiator %d after rank 0 died, want 1", name, d.Initiator())
		}
		if len(out) != 1 || out[0].From != 1 || out[0].To != 2 || out[0].Regen {
			t.Fatalf("%s: removal did not start the first round from rank 1: %v", name, out)
		}
		if !pump(d, out, 100) || !d.Terminated() {
			t.Fatalf("%s: no termination with rank 0 dead and the rest idle", name)
		}
	}
}

func TestRemoveRankZeroMidRound(t *testing.T) {
	for name, factory := range Detectors {
		d := factory(4)
		d.OnIdle(1)
		d.OnIdle(2)
		sends := d.OnIdle(0)
		pumpQueue(d, sends, 100) // token parks on rank 3, still busy
		// The sitting initiator dies; rank 1 inherits the role and, being
		// idle, restarts the round immediately.
		regen := d.RemoveRank(0)
		if len(regen) != 1 || regen[0].From != 1 {
			t.Fatalf("%s: rank 1 did not regenerate after rank 0 died: %v", name, regen)
		}
		sends = append(regen, d.OnIdle(3)...)
		if !pump(d, sends, 100) {
			t.Fatalf("%s: token never settled", name)
		}
		if !d.Terminated() {
			t.Fatalf("%s: no termination after initiator crash", name)
		}
	}
}

func TestAllButOneCrashed(t *testing.T) {
	for name, factory := range Detectors {
		d := factory(6)
		for rank := 0; rank < 5; rank++ {
			d.RemoveRank(rank) // rank 5 never went idle: busy
		}
		if d.Terminated() {
			t.Fatalf("%s: terminated while the survivor never reported idle", name)
		}
		if out := d.OnIdle(5); len(out) != 0 {
			t.Fatalf("%s: lone survivor emitted a token: %v", name, out)
		}
		if !d.Terminated() {
			t.Fatalf("%s: lone idle survivor did not terminate", name)
		}
	}
}

// TestSafraCountTransferChain walks a count balance through a chain of
// crashes: each removal must transfer the dead rank's balance to the
// (possibly also later-crashing) initiator, and a WorkLost with a dead
// sender must resolve against the final holder, which, alone and idle,
// decides on it.
func TestSafraCountTransferChain(t *testing.T) {
	d := NewSafra(6)
	d.WorkSent(3) // rank 3 has one unresolved work message in flight
	for rank := 0; rank < 5; rank++ {
		d.OnIdle(rank) // each initiator in turn is idle; rank 5 is busy
	}
	for rank := 0; rank < 5; rank++ {
		d.RemoveRank(rank)
	}
	// The survivor inherited the +1 balance: no termination yet.
	if out := d.OnIdle(5); len(out) != 0 {
		t.Fatalf("lone survivor emitted a token: %v", out)
	}
	if d.Terminated() {
		t.Fatal("Safra terminated with an unresolved in-flight message")
	}
	// The message is finally lost (its sender is long dead); the balance
	// resolves against the idle survivor, which decides on the loss.
	rounds := d.Rounds()
	d.WorkLost(3)
	if !d.Terminated() || d.Rounds() != rounds+1 {
		t.Fatalf("after the lost message resolved: terminated %v after %d more rounds, want true after 1",
			d.Terminated(), d.Rounds()-rounds)
	}
}

func TestRemoveAfterTermination(t *testing.T) {
	for name, factory := range Detectors {
		d := factory(2)
		sends := append(d.OnIdle(0), d.OnIdle(1)...)
		pump(d, sends, 100)
		if !d.Terminated() {
			t.Fatalf("%s: setup failed", name)
		}
		if out := d.RemoveRank(1); len(out) != 0 {
			t.Fatalf("%s: emitted after termination: %v", name, out)
		}
		if !d.Terminated() {
			t.Fatalf("%s: termination verdict revoked by a late crash", name)
		}
	}
}

// TestStaleTokenDropped parks a token on a busy rank, abandons the
// round with an unrelated crash, and checks the parked token is
// discarded by round number when its holder finally idles.
func TestStaleTokenDropped(t *testing.T) {
	for name, factory := range Detectors {
		d := factory(4)
		d.OnIdle(1)
		d.OnIdle(2)
		pumpQueue(d, d.OnIdle(0), 100) // token parks on rank 3, still busy
		regen := d.RemoveRank(1)
		if len(regen) != 1 || regen[0].To != 2 {
			t.Fatalf("%s: regenerated token did not skip the dead rank: %v", name, regen)
		}
		out := d.OnIdle(3)
		if d.Terminated() {
			t.Fatalf("%s: stale token decided a round", name)
		}
		// The parked token was stale: releasing it must either drop it
		// outright or feed the current round, never fork a second token.
		sends := append(regen, out...)
		if !pump(d, sends, 100) {
			t.Fatalf("%s: token never settled", name)
		}
		if !d.Terminated() {
			t.Fatalf("%s: no termination after stale token dropped", name)
		}
	}
}
