// Package term implements distributed termination detection for the
// work-stealing runtime.
//
// The reference UTS implementation detects termination with a
// token-ring algorithm ("such condition is detected by a token-ring
// distributed termination algorithm", paper §II-A). One token ring is
// provided with two taint rules:
//
//   - Safra's algorithm (the default): a colored token carrying a
//     message count circulates the ring; it is provably correct in the
//     presence of in-flight work messages, which matters because work
//     transfers here have real latencies.
//   - A Dijkstra-style color ring without message counting, matching
//     the reference implementation's simpler scheme. With delayed
//     messages this classic ring can in principle declare termination
//     while a work message is in flight; the engine cross-checks every
//     detection against its global oracle and flags such a run in
//     Result.Premature, and the ablation benches compare both rules'
//     overhead.
//
// Detectors are passive state machines: the engine tells them when a
// rank goes idle, about work-message traffic, token arrivals and
// crashes, and they answer with tokens to forward and, eventually, a
// termination verdict. They never ask the engine anything: a rank's
// idleness is inferred from those calls (busy until its first OnIdle,
// then idle until it next receives work), and they never communicate
// on their own, which keeps them independent of the transport and
// directly unit-testable.
//
// # Fail-stop tolerance
//
// Both rules survive fail-stop rank crashes (see internal/fault).
// The ring heals by routing around dead ranks: the successor function
// skips non-alive members, the initiator role falls to the lowest alive
// rank, and a crash abandons the in-flight round — its token, which may
// have died with the crashed rank, is regenerated by the initiator with
// a fresh round number, and any stale token still circulating (or
// parked on a busy rank) is dropped on arrival by its old round number.
// The detector owns every decision: Initiator names the rank that
// decides, RemoveRank restarts the healed ring itself when the
// initiator is idle, and a lone survivor, which has no token to wait
// for, decides again in WorkLost when a loss resolves while it idles.
// Safra additionally transfers the crashed rank's message-count balance
// to the initiator so that sum(count) keeps equaling the number of
// unresolved work messages, and WorkLost resolves messages that can no
// longer be received (dropped by a faulty link or addressed to a dead
// rank). Loss-side decrements can only make the observed round sum
// larger than the true in-flight count — behind-the-token decrements
// are simply not yet collected — so they delay detection by a round at
// worst and never cause a false positive.
package term

import "fmt"

// Color of a rank or token.
type Color uint8

// Token and rank colors.
const (
	White Color = iota
	Black
)

func (c Color) String() string {
	if c == Black {
		return "black"
	}
	return "white"
}

// Token is the message circulated on the ring. Engines treat it as an
// opaque payload.
type Token struct {
	Color Color
	// Count is Safra's accumulated message counter; always 0 under the
	// ring's taint rule.
	Count int64
	// Round numbers the detection rounds. Besides tracing, it is the
	// staleness epoch: a crash abandons the current round, and tokens
	// carrying an old round number are dropped wherever they surface.
	Round int
}

// TokenBytes is the modeled wire size of a token message.
const TokenBytes = 16

// Send instructs the engine to forward a token.
type Send struct {
	To int
	// From is the rank the token leaves. With a healed ring the sender
	// is not necessarily (To-1) mod n, so the detector names it.
	From  int
	Token Token
	// Regen marks a token regenerated after a crash (for tracing).
	Regen bool
}

// Detector is the engine-facing interface of a termination detector.
//
// Contract: the engine must call WorkSent/WorkReceived for every
// work-carrying message, WorkLost when a sent work message becomes
// undeliverable, OnIdle(rank) whenever rank transitions to idle,
// OnToken when a token message arrives, and RemoveRank when a rank
// fail-stops. Returned Sends must be delivered as token messages. After
// Terminated returns true no further calls are made.
//
// Idleness is inferred, never asked: a rank is busy until its first
// OnIdle, then idle until its next WorkReceived. So every route by
// which an idle rank starts working again must pass through
// WorkReceived. A verdict can come out of WorkLost, which may run
// inside a send; the engine reads Terminated after it and acts on the
// verdict once the send is done.
//
// Aliasing: a returned []Send is scratch the detector owns. It is valid
// only until the next OnIdle, OnToken or RemoveRank call on the same
// detector; the caller must send (or copy) its elements before then and
// must not keep the slice.
type Detector interface {
	Name() string
	// WorkSent records that rank sent one work message.
	WorkSent(rank int)
	// WorkReceived records that rank received one work message.
	WorkReceived(rank int)
	// WorkLost records that a work message sent by sender will never be
	// received: the link dropped it, or its destination crashed. The
	// sender may itself be dead by the time the loss resolves. When one
	// rank is left alive and it is idle, the loss is its cue to decide
	// again, which may set Terminated.
	WorkLost(sender int)
	// OnIdle notifies that rank is now idle; returns tokens to send.
	OnIdle(rank int) []Send
	// OnToken delivers a token to rank, which forwards it if idle and
	// holds it until its next OnIdle otherwise. Returns tokens to send.
	OnToken(rank int, tok Token) []Send
	// RemoveRank fail-stops rank: the ring routes around it from now
	// on. If the (possibly new) initiator is idle the healed ring
	// restarts now — the returned sends carry the regenerated token, or
	// the first one when no round had started, and a lone survivor
	// decides once — otherwise the restart is deferred to the
	// initiator's next OnIdle.
	RemoveRank(rank int) []Send
	// Initiator returns the rank that starts rounds and decides: rank 0
	// until it crashes, then the lowest alive rank.
	Initiator() int
	// Terminated reports whether global termination was detected.
	Terminated() bool
	// Rounds returns the number of finished token rounds, counting both
	// completed circulations and rounds abandoned by a crash.
	Rounds() int
}

// DecisionAware is an optional Detector capability: the sharded engine
// runs windows in parallel only for a detector that implements it, and
// serializes every window otherwise (correct but slow). The token ring
// implements it, and its promise is the one the sharded engine relies
// on: with two or more ranks alive and no crash, only OnToken at
// Initiator decides. A token parks at a rank only while the rank is
// busy, and a busy initiator that already went idle once was blackened
// by the work it received, so its next OnIdle forwards a tainted round.
// The engine serializes every window in which a token is due at the
// initiator and asserts that no verdict lands outside one.
type DecisionAware interface {
	// IdleDecisionPossible reports whether OnIdle(rank) could set
	// Terminated right now: only for the initiator as the lone
	// survivor, which decides from its own state.
	IdleDecisionPossible(rank int) bool
}

// ---------------------------------------------------------------------
// The token ring

// ring is the one token-ring detector: Safra's algorithm when counts is
// set, the Dijkstra-style color ring otherwise. The two differ only in
// the taint rule of a work message. Safra counts it (WorkSent adds one
// to the sender's count, WorkReceived subtracts one and blackens the
// receiver); the ring blackens the sender and the receiver and keeps
// every count at 0, so its round and lone-survivor tests are Safra's
// with the count term always met.
//
// The ring heals around crashed ranks: succ skips the dead, the
// initiator role is the lowest alive rank, and a crash abandons the
// in-flight round, regenerating it at once when the initiator is idle
// and at its next idle moment otherwise (restart).
type ring struct {
	counts bool
	alive  []bool
	nAlive int
	// idle[r] is set by OnIdle(r) and cleared by WorkReceived(r): a
	// rank is busy until it first goes idle. Both calls name r, so only
	// the engine owning r writes it, as with r's color and count in a
	// sharded run.
	idle []bool
	// init is the round initiator: rank 0 until it crashes, then the
	// lowest alive rank.
	init       int
	restart    bool // a crash abandoned the round; regenerate when idle
	started    bool
	terminated bool
	round      int
	color      []Color
	count      []int64 // Safra's per-rank message balance; all 0 for the ring
	pending    []bool  // rank holds the token, waiting to go idle
	pendingTok []Token
	// out backs every returned []Send: there is one token, so one send.
	out [1]Send
}

// NewSafra returns Safra's termination detector for n ranks. Rank 0
// (or, after it crashes, the lowest alive rank) initiates the first
// round when it first becomes idle.
func NewSafra(n int) Detector { return newRing(n, true) }

// NewRing returns the classic color-token ring: a rank that sent or
// received work since the token last visited taints the round. It
// matches the reference UTS scheme and is cheaper than Safra (no
// counters), but is only sound when work messages are not in flight
// across a whole clean token round; the engine verifies detections
// against its oracle.
func NewRing(n int) Detector { return newRing(n, false) }

func newRing(n int, counts bool) *ring {
	if n < 1 {
		panic(fmt.Sprintf("term: detector for %d ranks", n))
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	return &ring{
		counts:     counts,
		alive:      alive,
		nAlive:     n,
		idle:       make([]bool, n),
		color:      make([]Color, n),
		count:      make([]int64, n),
		pending:    make([]bool, n),
		pendingTok: make([]Token, n),
	}
}

func (d *ring) Name() string {
	if d.counts {
		return "Safra"
	}
	return "Ring"
}

func (d *ring) WorkSent(rank int) {
	if d.counts {
		d.count[rank]++
	} else {
		d.color[rank] = Black
	}
}

func (d *ring) WorkReceived(rank int) {
	if d.counts {
		d.count[rank]--
	}
	d.color[rank] = Black
	d.idle[rank] = false
}

// WorkLost resolves a lost message against its sender's balance; a dead
// sender's balance was transferred to the initiator when it was
// removed. The ring has no counts to reconcile: a loss only matters to
// it through the taint the original send already left behind. A lone
// idle survivor has no token to wait for and no OnIdle coming, so it
// decides on the resolved balance here.
func (d *ring) WorkLost(sender int) {
	if d.terminated {
		return
	}
	if d.counts {
		if d.alive[sender] {
			d.count[sender]--
		} else {
			d.count[d.init]--
		}
	}
	if d.nAlive == 1 && d.idle[d.init] {
		d.OnIdle(d.init) // decides; a lone survivor emits nothing
	}
}

func (d *ring) OnIdle(rank int) []Send {
	if d.terminated || !d.alive[rank] {
		return nil
	}
	d.idle[rank] = true
	if rank == d.init && (!d.started || d.restart || d.nAlive == 1) {
		// Initiate the first round, regenerate after a crash, or — as
		// the sole survivor — re-decide directly from local state.
		regen := d.restart
		d.started = true
		d.restart = false
		d.pending[rank] = false // any held token is from an abandoned round
		return d.emitInit(regen)
	}
	if d.pending[rank] {
		d.pending[rank] = false
		tok := d.pendingTok[rank]
		if tok.Round != d.round {
			return nil // parked token from an abandoned round
		}
		return d.forward(rank, tok)
	}
	return nil
}

func (d *ring) OnToken(rank int, tok Token) []Send {
	if d.terminated || !d.alive[rank] || tok.Round != d.round {
		return nil
	}
	if !d.idle[rank] {
		d.pending[rank] = true
		d.pendingTok[rank] = tok
		return nil
	}
	return d.forward(rank, tok)
}

func (d *ring) RemoveRank(rank int) []Send {
	if d.terminated || !d.alive[rank] {
		return nil
	}
	d.pending[rank] = false
	d.alive[rank] = false
	if d.nAlive--; d.nAlive == 0 {
		return nil
	}
	for !d.alive[d.init] {
		d.init++ // every rank below the initiator is dead
	}
	// Transfer the dead rank's balance to the initiator so sum(count)
	// still equals the unresolved in-flight messages.
	d.count[d.init] += d.count[rank]
	d.count[rank] = 0
	if d.started {
		// Abandon the in-flight round: its token may have died with the
		// rank, and any surviving copy is now stale by round number.
		d.round++
		d.restart = true
	}
	if !d.idle[d.init] {
		return nil // the initiator restarts the ring at its next OnIdle
	}
	// An idle initiator has no OnIdle coming: regenerate the round, or
	// start the first one, now; a lone survivor decides.
	return d.OnIdle(d.init)
}

func (d *ring) Initiator() int { return d.init }

// succ returns the next alive rank after rank, skipping the dead.
func (d *ring) succ(rank int) int {
	n := len(d.alive)
	for i := 1; i <= n; i++ {
		if r := (rank + i) % n; d.alive[r] {
			return r
		}
	}
	return rank
}

func (d *ring) forward(rank int, tok Token) []Send {
	if rank == d.init {
		// Round complete: decide or start over.
		d.round++
		if tok.Color == White && d.color[rank] == White && tok.Count+d.count[rank] == 0 {
			d.terminated = true
			return nil
		}
		return d.emitInit(false)
	}
	tok.Count += d.count[rank]
	if d.color[rank] == Black {
		tok.Color = Black
	}
	d.color[rank] = White
	return d.emit(Send{From: rank, To: d.succ(rank), Token: tok})
}

func (d *ring) emitInit(regen bool) []Send {
	d.color[d.init] = White
	if d.nAlive == 1 {
		// Degenerate ring: decide immediately.
		d.round++
		if d.count[d.init] == 0 {
			d.terminated = true
		}
		return nil
	}
	// The token starts at zero; the initiator's own counter joins the
	// test only when the token returns (q + c_init == 0).
	tok := Token{Color: White, Round: d.round}
	return d.emit(Send{From: d.init, To: d.succ(d.init), Token: tok, Regen: regen})
}

// emit returns s as the detector's one-element scratch slice.
func (d *ring) emit(s Send) []Send {
	d.out[0] = s
	return d.out[:]
}

func (d *ring) Terminated() bool { return d.terminated }
func (d *ring) Rounds() int      { return d.round }

// IdleDecisionPossible implements DecisionAware. OnIdle decides only
// through emitInit's lone-survivor branch: a token parked at the
// initiator waits behind a black rank (see DecisionAware).
func (d *ring) IdleDecisionPossible(rank int) bool {
	return !d.terminated && rank == d.init && d.alive[rank] && d.nAlive == 1
}

// ---------------------------------------------------------------------

// Factory constructs a detector for n ranks.
type Factory func(n int) Detector

// Detectors is the registry of detector factories by name.
var Detectors = map[string]Factory{
	"Safra": NewSafra,
	"Ring":  NewRing,
}
