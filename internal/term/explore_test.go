package term

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// The explorer: every interleaving of the calls an engine makes into
// one token ring, for a few ranks and a bounded amount of work traffic,
// with no crashes and no losses. A state is the ring plus what the
// engine holds around it: which ranks work, the work messages and
// tokens in flight, and how many work messages were sent. Its moves
// are the engine's calls:
//   - a busy rank sends work to another rank (WorkSent);
//   - an in-flight work message is received (WorkReceived), which makes
//     its receiver busy;
//   - a busy rank goes idle (OnIdle);
//   - an in-flight token is delivered (OnToken).
//
// Messages may arrive in any order, as latency can reorder them in the
// engine. Every rank starts busy, the ring's own starting assumption;
// the engine's start, every rank but rank 0 going idle at once, is one
// of the interleavings.

const (
	exploreInFlight = 2 // work messages in flight at once
	exploreSent     = 3 // work messages sent in all
)

// The move kinds.
const (
	mvSend = iota
	mvReceive
	mvIdle
	mvToken
)

// move is one engine call. rank is the rank the call names; to is a
// sent message's destination; i indexes the in-flight message or token
// that arrives.
type move struct{ kind, rank, to, i int }

type workMsg struct{ from, to int }

type exploreState struct {
	d      *ring
	busy   []bool    // the engine's view: busy until OnIdle, and after WorkReceived
	work   []workMsg // in flight, sorted
	tokens []Send    // in flight, sorted
	sent   int
}

func (s *exploreState) clone() *exploreState {
	d := *s.d
	d.alive = slices.Clone(d.alive)
	d.idle = slices.Clone(d.idle)
	d.color = slices.Clone(d.color)
	d.count = slices.Clone(d.count)
	d.pending = slices.Clone(d.pending)
	d.pendingTok = slices.Clone(d.pendingTok)
	return &exploreState{d: &d, busy: slices.Clone(s.busy), work: slices.Clone(s.work),
		tokens: slices.Clone(s.tokens), sent: s.sent}
}

// key identifies s for deduplication. Rounds are kept relative to the
// ring's: without crashes the ring only compares a token's round with
// its own and stamps new tokens with it, so shifting every round by
// one constant changes nothing it does, and the endless rounds of an
// all-idle ring with work in flight fold into finitely many states. A
// parked token is keyed only while it is parked.
func (s *exploreState) key() string {
	d := s.d
	b := []byte{flag(d.started), flag(d.restart), flag(d.terminated), byte(d.init), byte(s.sent)}
	for r := range d.alive {
		b = append(b, flag(s.busy[r]), flag(d.idle[r]), byte(d.color[r]), byte(d.count[r]), flag(d.pending[r]))
		if tok := d.pendingTok[r]; d.pending[r] {
			b = append(b, byte(tok.Color), byte(tok.Count), byte(tok.Round-d.round))
		}
	}
	for _, m := range s.work {
		b = append(b, 'w', byte(m.from), byte(m.to))
	}
	for _, t := range s.tokens {
		b = append(b, 't', byte(t.From), byte(t.To), byte(t.Token.Color), byte(t.Token.Count),
			byte(t.Token.Round-d.round), flag(t.Regen))
	}
	return string(b)
}

func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// moves lists the engine-legal calls from s. Identical in-flight work
// messages make one move.
func (s *exploreState) moves() []move {
	var ms []move
	for r, busy := range s.busy {
		if !busy {
			continue
		}
		ms = append(ms, move{kind: mvIdle, rank: r})
		if s.sent < exploreSent && len(s.work) < exploreInFlight {
			for to := range s.busy {
				if to != r {
					ms = append(ms, move{kind: mvSend, rank: r, to: to})
				}
			}
		}
	}
	for i, m := range s.work {
		if i == 0 || m != s.work[i-1] {
			ms = append(ms, move{kind: mvReceive, rank: m.to, i: i})
		}
	}
	for i, tok := range s.tokens {
		ms = append(ms, move{kind: mvToken, rank: tok.To, i: i})
	}
	return ms
}

// label names mv as made from s, for a failure's path.
func (s *exploreState) label(mv move) string {
	switch mv.kind {
	case mvSend:
		return fmt.Sprintf("WorkSent(%d) to %d", mv.rank, mv.to)
	case mvReceive:
		return fmt.Sprintf("WorkReceived(%d) from %d", mv.rank, s.work[mv.i].from)
	case mvIdle:
		return fmt.Sprintf("OnIdle(%d)", mv.rank)
	}
	return fmt.Sprintf("OnToken(%d, %+v)", mv.rank, s.tokens[mv.i].Token)
}

// step makes mv on s and returns the sends it produced, copied out of
// the ring's scratch; they join the tokens in flight.
func (s *exploreState) step(mv move) []Send {
	var sends []Send
	switch mv.kind {
	case mvSend:
		s.d.WorkSent(mv.rank)
		s.work = append(s.work, workMsg{mv.rank, mv.to})
		slices.SortFunc(s.work, func(a, b workMsg) int { return cmp.Or(a.from-b.from, a.to-b.to) })
		s.sent++
	case mvReceive:
		s.work = slices.Delete(s.work, mv.i, mv.i+1)
		s.d.WorkReceived(mv.rank)
		s.busy[mv.rank] = true
	case mvIdle:
		sends = slices.Clone(s.d.OnIdle(mv.rank))
		s.busy[mv.rank] = false
	case mvToken:
		tok := s.tokens[mv.i]
		s.tokens = slices.Delete(s.tokens, mv.i, mv.i+1)
		sends = slices.Clone(s.d.OnToken(tok.To, tok.Token))
	}
	s.tokens = append(s.tokens, sends...)
	slices.SortFunc(s.tokens, func(a, b Send) int {
		return cmp.Or(a.To-b.To, a.From-b.From, a.Token.Round-b.Token.Round,
			int(a.Token.Color)-int(b.Token.Color), cmp.Compare(a.Token.Count, b.Token.Count))
	})
	return sends
}

// explore visits every state reachable from d with every rank busy and
// checks each move:
//   - the verdict comes only inside OnToken at Initiator(), and that
//     call sends nothing;
//   - under Safra, only when every rank is idle and no work is in
//     flight (the Dijkstra ring does not count messages, so a message
//     in flight across a clean round escapes it, as its doc says);
//   - once it is out, no call sends, moves the round count or takes it
//     back, so there is one verdict;
//   - a state with no move left has a verdict: the token is never lost.
//
// It returns the number of states and of moves that decided.
func explore(t *testing.T, d *ring) (states, verdicts int) {
	t.Helper()
	n := len(d.alive)
	start := &exploreState{d: d, busy: make([]bool, n)}
	for r := range start.busy {
		start.busy[r] = true
	}
	type pred struct{ from, label string }
	seen := map[string]pred{start.key(): {}}
	fail := func(k, format string, args ...any) {
		t.Helper()
		var path []string
		for e := seen[k]; e.label != ""; e = seen[e.from] {
			path = append(path, e.label)
		}
		slices.Reverse(path)
		t.Fatalf("%s n=%d: %s\n  after %s", d.Name(), n, fmt.Sprintf(format, args...), strings.Join(path, ", "))
	}
	queue := []*exploreState{start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		k := s.key()
		ms := s.moves()
		if len(ms) == 0 {
			fail(k, "no move left and no verdict")
		}
		for _, mv := range ms {
			next := s.clone()
			sends := next.step(mv)
			label := s.label(mv)
			if !next.d.terminated {
				nk := next.key()
				if _, ok := seen[nk]; !ok {
					seen[nk] = pred{from: k, label: label}
					queue = append(queue, next)
				}
				continue
			}
			verdicts++
			switch {
			case mv.kind != mvToken || mv.rank != s.d.Initiator():
				fail(k, "%s decided; only OnToken at the initiator %d may", label, s.d.Initiator())
			case len(sends) > 0:
				fail(k, "%s decided and sent %+v", label, sends)
			case d.counts && (slices.Contains(next.busy, true) || len(next.work) > 0):
				fail(k, "%s decided with busy ranks %v and work %v in flight", label, next.busy, next.work)
			}
			for _, after := range next.moves() {
				probe := next.clone()
				if sends := probe.step(after); len(sends) > 0 || !probe.d.terminated || probe.d.round != next.d.round {
					fail(k, "%s decided, then %s sent %+v, left the verdict at %v and the rounds at %d (were %d)",
						label, next.label(after), sends, probe.d.terminated, probe.d.round, next.d.round)
				}
			}
		}
	}
	return len(seen), verdicts
}

// TestExploreInterleavings runs the explorer for 2 and 3 ranks under
// both taint rules.
func TestExploreInterleavings(t *testing.T) {
	for _, counts := range []bool{true, false} {
		for _, n := range []int{2, 3} {
			d := newRing(n, counts)
			t.Run(fmt.Sprintf("%s/n=%d", d.Name(), n), func(t *testing.T) {
				states, verdicts := explore(t, d)
				if verdicts == 0 {
					t.Fatal("no interleaving reached a verdict")
				}
				t.Logf("%d states, %d verdicts", states, verdicts)
			})
		}
	}
}
