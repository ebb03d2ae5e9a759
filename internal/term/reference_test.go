package term

import (
	"fmt"
	"slices"
	"testing"
)

// The reference for FuzzDetectorMatchesReference: Safra and the
// Dijkstra-style ring as two types over a shared membership record,
// the shape they had before they became one type with two taint rules.
// It is told every rank's idleness, where the detector under test
// infers it. Its RemoveRank takes the initiator's idleness as a bool
// and leaves the initiator and the restart of a ring that had not
// started to the caller, which refCrash does as the engine did, and a
// lone survivor's decision on a lost message to refLoss, which does it
// as the engine's deferred survivor check did.

// refDetector is the Detector contract of the reference, with the old
// RemoveRank.
type refDetector interface {
	WorkSent(rank int)
	WorkReceived(rank int)
	WorkLost(sender int)
	OnIdle(rank int) []Send
	OnToken(rank int, tok Token, idle bool) []Send
	RemoveRank(rank int, initiatorIdle bool) []Send
	Terminated() bool
	Rounds() int
	IdleDecisionPossible(rank int) bool
}

// refCrash removes rank from ref as the engine's crash path did:
// the initiator is the lowest rank alive counts (0 when none is), it
// is idle unless busy says otherwise, and when it is idle but the
// removal emitted nothing the initiator is nudged with OnIdle. The
// engine nudged a lone survivor that had just decided, too, deciding
// twice at one crash; the nudge here goes only to a ring the removal
// did not restart, one whose round number it left alone. The sends are
// copied out of the detector's scratch.
func refCrash(ref refDetector, rank int, alive, busy []bool) []Send {
	alive[rank] = false
	initr := 0
	for r := range alive {
		if alive[r] {
			initr = r
			break
		}
	}
	initIdle := !busy[initr]
	round := ref.Rounds()
	sends := append([]Send(nil), ref.RemoveRank(rank, initIdle)...)
	if initIdle && len(sends) == 0 && ref.Rounds() == round {
		sends = append(sends, ref.OnIdle(initr)...)
	}
	return sends
}

// refLoss resolves a lost work message from sender in ref as the
// engine's lost-message path did: after WorkLost, a lone surviving rank
// that is idle is told OnIdle, which decides again.
func refLoss(ref refDetector, sender int, alive, busy []bool) {
	ref.WorkLost(sender)
	surv := -1
	for r := range alive {
		if alive[r] {
			if surv >= 0 {
				return
			}
			surv = r
		}
	}
	if surv >= 0 && !busy[surv] {
		ref.OnIdle(surv)
	}
}

// The op kinds of FuzzDetectorMatchesReference.
const opWork, opArrive, opIdle, opToken, opCrash = 0, 1, 2, 3, 4

// FuzzDetectorMatchesReference drives a detector of each taint rule and
// its reference through the same random legal run of 1 to 12 ranks and
// requires the same sends, verdict, round count, initiator and
// IdleDecisionPossible answers after every step. The ranks in busyMask
// start working, the others go idle at the start in rank order; then
// each 3-byte op (kind, a, b) makes a working rank send work, delivers
// a work message or loses it on its link (b odd; a message to a
// crashed rank is lost on arrival), makes a working rank go idle,
// delivers a token (a working rank parks it; a crashed one's is
// dropped unseen), or crashes a rank. The harness tracks which ranks
// work by the rule the detector infers idleness by — busy until idle,
// then idle until work arrives — and tells the reference; the detector
// is told nothing. The reference takes crashes and losses as refCrash
// and refLoss do. The run stops at the verdict: no call follows it.
func FuzzDetectorMatchesReference(f *testing.F) {
	// The initiator crashes before the first round; its idle successor
	// starts it.
	f.Add(uint8(3), uint16(0b0001), []byte{opCrash, 0, 0, opToken, 0, 0, opToken, 0, 0, opToken, 0, 0})
	// A lone survivor inherits an unresolved count and decides once at
	// the crash; a stale token reaches it; the work lands and it decides.
	f.Add(uint8(1), uint16(0b01), []byte{opWork, 0, 0, opIdle, 0, 0, opCrash, 0, 0, opToken, 0, 0, opArrive, 0, 0, opIdle, 0, 0})
	// A crash abandons the round; the first round's token arrives stale.
	f.Add(uint8(3), uint16(0), []byte{opCrash, 2, 0, opToken, 0, 0, opToken, 0, 0, opToken, 0, 0, opToken, 0, 0})
	// The token parks on a working rank and moves on when it idles.
	f.Add(uint8(2), uint16(0b100), []byte{opToken, 0, 0, opToken, 0, 0, opIdle, 0, 0, opToken, 0, 0})
	// A crash abandons the round while its token is parked; the parked
	// token is stale when its holder idles.
	f.Add(uint8(3), uint16(0b1000), []byte{opToken, 0, 0, opToken, 0, 0, opToken, 0, 0, opCrash, 1, 0, opIdle, 0, 0,
		opToken, 0, 0, opToken, 0, 0, opToken, 0, 0})
	// Rank 2 sends work to rank 0 and idles; the others crash, rank 0
	// first, leaving rank 2 alone and idle with the count; the message
	// is lost at its dead destination and the survivor decides on it.
	f.Add(uint8(2), uint16(0b100), []byte{opWork, 0, 0, opIdle, 0, 0, opCrash, 0, 0, opCrash, 0, 0, opArrive, 0, 0})
	f.Fuzz(func(t *testing.T, nIn uint8, busyMask uint16, ops []byte) {
		n := 1 + int(nIn%12)
		matchReference(t, NewSafra(n), newRefSafra(n), n, busyMask, ops)
		matchReference(t, NewRing(n), newRefRing(n), n, busyMask, ops)
	})
}

// matchReference is one run of FuzzDetectorMatchesReference.
func matchReference(t *testing.T, d Detector, ref refDetector, n int, busyMask uint16, ops []byte) {
	t.Helper()
	da := d.(DecisionAware)
	alive, refAlive, busy := make([]bool, n), make([]bool, n), make([]bool, n)
	for r := range n {
		alive[r], refAlive[r], busy[r] = true, true, busyMask>>r&1 != 0
	}
	ranks := func(in []bool) []int {
		var rs []int
		for r, ok := range in {
			if ok {
				rs = append(rs, r)
			}
		}
		return rs
	}
	type work struct{ from, to int }
	var inFlight []work
	var tokens []Send
	check := func(step string) {
		if d.Terminated() != ref.Terminated() || d.Rounds() != ref.Rounds() {
			t.Fatalf("%s %s: terminated %v after %d rounds, the reference %v after %d",
				d.Name(), step, d.Terminated(), d.Rounds(), ref.Terminated(), ref.Rounds())
		}
		if live := ranks(alive); len(live) > 0 && d.Initiator() != live[0] {
			t.Fatalf("%s %s: initiator %d, the lowest alive rank is %d", d.Name(), step, d.Initiator(), live[0])
		}
		for r := range n {
			if got, want := da.IdleDecisionPossible(r), ref.IdleDecisionPossible(r); got != want {
				t.Fatalf("%s %s: IdleDecisionPossible(%d) %v, the reference %v", d.Name(), step, r, got, want)
			}
		}
	}
	sent := func(step string, got, want []Send) {
		if !slices.Equal(got, want) {
			t.Fatalf("%s %s: sends %+v, the reference %+v", d.Name(), step, got, want)
		}
		tokens = append(tokens, got...)
		check(step)
	}
	for r := range n {
		if !busy[r] {
			sent(fmt.Sprintf("rank %d idle at the start", r), d.OnIdle(r), ref.OnIdle(r))
		}
	}
	for i := 0; i+2 < len(ops) && !d.Terminated(); i += 3 {
		a, b := int(ops[i+1]), int(ops[i+2])
		switch ops[i] % 5 {
		case opWork:
			from := ranks(busy)
			if len(from) == 0 || n == 1 {
				continue
			}
			m := work{from: from[a%len(from)]}
			m.to = (m.from + 1 + b%(n-1)) % n
			d.WorkSent(m.from)
			ref.WorkSent(m.from)
			inFlight = append(inFlight, m)
			check(fmt.Sprintf("work %d->%d sent", m.from, m.to))
		case opArrive:
			if len(inFlight) == 0 {
				continue
			}
			k := a % len(inFlight)
			m := inFlight[k]
			inFlight = slices.Delete(inFlight, k, k+1)
			if b%2 == 1 || !alive[m.to] {
				d.WorkLost(m.from)
				refLoss(ref, m.from, refAlive, busy)
				check(fmt.Sprintf("work %d->%d lost", m.from, m.to))
				continue
			}
			d.WorkReceived(m.to)
			ref.WorkReceived(m.to)
			busy[m.to] = true
			check(fmt.Sprintf("work %d->%d received", m.from, m.to))
		case opIdle:
			working := ranks(busy)
			if len(working) == 0 {
				continue
			}
			r := working[a%len(working)]
			busy[r] = false
			sent(fmt.Sprintf("rank %d idle", r), d.OnIdle(r), ref.OnIdle(r))
		case opToken:
			if len(tokens) == 0 {
				continue
			}
			k := a % len(tokens)
			s := tokens[k]
			tokens = slices.Delete(tokens, k, k+1)
			if alive[s.To] {
				sent(fmt.Sprintf("token %+v delivered", s), d.OnToken(s.To, s.Token), ref.OnToken(s.To, s.Token, !busy[s.To]))
			}
		case opCrash:
			live := ranks(alive)
			if len(live) == 0 {
				continue
			}
			r := live[a%len(live)]
			alive[r], busy[r] = false, false
			want := refCrash(ref, r, refAlive, busy)
			sent(fmt.Sprintf("rank %d crashed", r), d.RemoveRank(r), want)
		}
	}
}

// refMembers tracks ring membership shared by both detectors: who is
// alive, who initiates rounds (the lowest alive rank), and whether a
// crash deferred a ring restart to the initiator's next idle moment.
type refMembers struct {
	n      int
	alive  []bool
	nAlive int
	// init is the round initiator: rank 0 until it crashes, then the
	// lowest alive rank.
	init       int
	restart    bool // a crash abandoned the round; regenerate when idle
	started    bool
	terminated bool
	round      int
	// out backs every returned []Send: there is one token, so one send.
	out [1]Send
}

// emit returns s as the detector's one-element scratch slice.
func (m *refMembers) emit(s Send) []Send {
	m.out[0] = s
	return m.out[:]
}

func newRefMembers(n int) refMembers {
	if n < 1 {
		panic(fmt.Sprintf("term: detector for %d ranks", n))
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	return refMembers{n: n, alive: alive, nAlive: n}
}

// succ returns the next alive rank after rank, skipping the dead.
func (m *refMembers) succ(rank int) int {
	for i := 1; i <= m.n; i++ {
		if r := (rank + i) % m.n; m.alive[r] {
			return r
		}
	}
	return rank
}

func (m *refMembers) lowestAlive() int {
	for r := 0; r < m.n; r++ {
		if m.alive[r] {
			return r
		}
	}
	return 0
}

// drop marks rank dead and abandons the in-flight round. It reports
// whether a regenerated round should be emitted now (initiator idle)
// or deferred (restart flag). The caller handles detector-specific
// state (Safra's count transfer) before emitting.
func (m *refMembers) drop(rank int, initiatorIdle bool) (emit bool) {
	m.alive[rank] = false
	m.nAlive--
	if m.nAlive == 0 {
		return false
	}
	if rank == m.init {
		m.init = m.lowestAlive()
	}
	if !m.started {
		return false
	}
	// Abandon the in-flight round: its token may have died with the
	// rank, and any surviving copy is now stale by round number.
	m.round++
	if initiatorIdle {
		m.restart = false
		return true
	}
	m.restart = true
	return false
}

// ---------------------------------------------------------------------
// Safra's algorithm

type refSafra struct {
	refMembers
	color      []Color
	count      []int64
	pending    []bool // rank holds the token, waiting to go idle
	pendingTok []Token
}

// newRefSafra returns Safra's termination detector for n ranks. Rank 0
// (or, after it crashes, the lowest alive rank) initiates the first
// round when it first becomes idle.
func newRefSafra(n int) refDetector {
	return &refSafra{
		refMembers: newRefMembers(n),
		color:      make([]Color, n),
		count:      make([]int64, n),
		pending:    make([]bool, n),
		pendingTok: make([]Token, n),
	}
}

func (s *refSafra) Name() string { return "Safra" }

func (s *refSafra) WorkSent(rank int) { s.count[rank]++ }

func (s *refSafra) WorkReceived(rank int) {
	s.count[rank]--
	s.color[rank] = Black
}

func (s *refSafra) WorkLost(sender int) {
	if s.terminated {
		return
	}
	// Resolve the message against its sender's balance; a dead sender's
	// balance was transferred to the initiator when it was removed.
	if s.alive[sender] {
		s.count[sender]--
	} else {
		s.count[s.init]--
	}
}

func (s *refSafra) OnIdle(rank int) []Send {
	if s.terminated || !s.alive[rank] {
		return nil
	}
	if rank == s.init && (!s.started || s.restart || s.nAlive == 1) {
		// Initiate the first round, regenerate after a crash, or — as
		// the sole survivor — re-decide directly from local state.
		regen := s.restart
		s.started = true
		s.restart = false
		s.pending[rank] = false // any held token is from an abandoned round
		return s.emitInit(regen)
	}
	if s.pending[rank] {
		s.pending[rank] = false
		tok := s.pendingTok[rank]
		if tok.Round != s.round {
			return nil // parked token from an abandoned round
		}
		return s.forward(rank, tok)
	}
	return nil
}

func (s *refSafra) OnToken(rank int, tok Token, idle bool) []Send {
	if s.terminated || !s.alive[rank] || tok.Round != s.round {
		return nil
	}
	if !idle {
		s.pending[rank] = true
		s.pendingTok[rank] = tok
		return nil
	}
	return s.forward(rank, tok)
}

func (s *refSafra) RemoveRank(rank int, initiatorIdle bool) []Send {
	if s.terminated || !s.alive[rank] {
		return nil
	}
	s.pending[rank] = false
	emit := s.drop(rank, initiatorIdle)
	if s.nAlive == 0 {
		return nil
	}
	// Transfer the dead rank's message-count balance to the initiator
	// so sum(count) still equals the unresolved in-flight messages.
	s.count[s.init] += s.count[rank]
	s.count[rank] = 0
	if emit {
		return s.emitInit(true)
	}
	return nil
}

func (s *refSafra) forward(rank int, tok Token) []Send {
	if rank == s.init {
		// Round complete: decide or start over.
		s.round++
		if tok.Color == White && s.color[rank] == White && tok.Count+s.count[rank] == 0 {
			s.terminated = true
			return nil
		}
		return s.emitInit(false)
	}
	tok.Count += s.count[rank]
	if s.color[rank] == Black {
		tok.Color = Black
	}
	s.color[rank] = White
	return s.emit(Send{From: rank, To: s.succ(rank), Token: tok})
}

func (s *refSafra) emitInit(regen bool) []Send {
	s.color[s.init] = White
	if s.nAlive == 1 {
		// Degenerate ring: decide immediately.
		s.round++
		if s.count[s.init] == 0 {
			s.terminated = true
		}
		return nil
	}
	// The token starts at zero; the initiator's own counter joins the
	// test only when the token returns (q + c_init == 0).
	tok := Token{Color: White, Count: 0, Round: s.round}
	return s.emit(Send{From: s.init, To: s.succ(s.init), Token: tok, Regen: regen})
}

func (s *refSafra) Terminated() bool { return s.terminated }
func (s *refSafra) Rounds() int      { return s.round }

// IdleDecisionPossible implements DecisionAware. The verdict in forward
// requires a white current-round token at a white initiator; the count
// condition is ignored (conservative — counts can reach zero within the
// window). Colors only darken between token visits, so a black answer
// cannot turn deciding without another OnToken at the initiator.
func (s *refSafra) IdleDecisionPossible(rank int) bool {
	if s.terminated || rank != s.init || !s.alive[rank] {
		return false
	}
	if !s.started || s.restart {
		// The next OnIdle emits a (possibly regenerated) round; deciding
		// there needs nAlive == 1, checked below.
		return s.nAlive == 1
	}
	if s.nAlive == 1 {
		return true
	}
	if !s.pending[rank] {
		return false
	}
	tok := s.pendingTok[rank]
	return tok.Round == s.round && tok.Color == White && s.color[rank] == White
}

// ---------------------------------------------------------------------
// Dijkstra-style color ring (reference-faithful)

type refRing struct {
	refMembers
	color      []Color // black after sending work, per Dijkstra's rule
	pending    []bool
	pendingTok []Token
}

// newRefRing returns the classic color-token ring: a rank that sent work
// since the token last visited taints the round. It matches the
// reference UTS scheme and is cheaper than Safra (no counters), but is
// only sound when work messages are not in flight across a whole clean
// token round; the engine verifies detections against its oracle.
func newRefRing(n int) refDetector {
	return &refRing{
		refMembers: newRefMembers(n),
		color:      make([]Color, n),
		pending:    make([]bool, n),
		pendingTok: make([]Token, n),
	}
}

func (r *refRing) Name() string { return "Ring" }

func (r *refRing) WorkSent(rank int) { r.color[rank] = Black }

func (r *refRing) WorkReceived(rank int) { r.color[rank] = Black }

func (r *refRing) WorkLost(sender int) {
	// The ring has no counters to reconcile; losses only matter to it
	// through the taint the original send already left behind.
}

func (r *refRing) OnIdle(rank int) []Send {
	if r.terminated || !r.alive[rank] {
		return nil
	}
	if rank == r.init && (!r.started || r.restart || r.nAlive == 1) {
		regen := r.restart
		r.started = true
		r.restart = false
		r.pending[rank] = false
		return r.emitInit(regen)
	}
	if r.pending[rank] {
		r.pending[rank] = false
		tok := r.pendingTok[rank]
		if tok.Round != r.round {
			return nil // parked token from an abandoned round
		}
		return r.forward(rank, tok)
	}
	return nil
}

func (r *refRing) OnToken(rank int, tok Token, idle bool) []Send {
	if r.terminated || !r.alive[rank] || tok.Round != r.round {
		return nil
	}
	if !idle {
		r.pending[rank] = true
		r.pendingTok[rank] = tok
		return nil
	}
	return r.forward(rank, tok)
}

func (r *refRing) RemoveRank(rank int, initiatorIdle bool) []Send {
	if r.terminated || !r.alive[rank] {
		return nil
	}
	r.pending[rank] = false
	emit := r.drop(rank, initiatorIdle)
	if emit {
		return r.emitInit(true)
	}
	return nil
}

func (r *refRing) forward(rank int, tok Token) []Send {
	if rank == r.init {
		r.round++
		if tok.Color == White && r.color[rank] == White {
			r.terminated = true
			return nil
		}
		return r.emitInit(false)
	}
	if r.color[rank] == Black {
		tok.Color = Black
	}
	r.color[rank] = White
	return r.emit(Send{From: rank, To: r.succ(rank), Token: tok})
}

func (r *refRing) emitInit(regen bool) []Send {
	r.color[r.init] = White
	if r.nAlive == 1 {
		r.round++
		r.terminated = true
		return nil
	}
	tok := Token{Color: White, Round: r.round}
	return r.emit(Send{From: r.init, To: r.succ(r.init), Token: tok, Regen: regen})
}

func (r *refRing) Terminated() bool { return r.terminated }
func (r *refRing) Rounds() int      { return r.round }

// IdleDecisionPossible implements DecisionAware; see the Safra variant.
// The ring's verdict is the same white-token-at-white-initiator
// condition without a count term.
func (r *refRing) IdleDecisionPossible(rank int) bool {
	if r.terminated || rank != r.init || !r.alive[rank] {
		return false
	}
	if !r.started || r.restart {
		return r.nAlive == 1
	}
	if r.nAlive == 1 {
		return true
	}
	if !r.pending[rank] {
		return false
	}
	tok := r.pendingTok[rank]
	return tok.Round == r.round && tok.Color == White && r.color[rank] == White
}
