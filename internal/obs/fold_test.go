package obs

import (
	"slices"
	"testing"

	"distws/internal/sim"
	"distws/internal/trace"
)

func TestRecorderDedupsAndOrders(t *testing.T) {
	r := NewActivityRecorder(2)
	r.Mark(0, 0, trace.Idle) // ranks start idle: no transition
	r.Mark(0, 10, trace.Active)
	r.Mark(0, 15, trace.Active) // the phase it is in: no transition
	r.Mark(0, 20, trace.Idle)
	r.Mark(1, 5, trace.Active)
	tr := r.Finish(100)
	if len(tr.Transitions[0]) != 2 {
		t.Fatalf("rank 0 has %d transitions, want 2", len(tr.Transitions[0]))
	}
	if tr.Transitions[0][0] != (trace.Transition{Time: 10, State: trace.Active}) ||
		tr.Transitions[0][1] != (trace.Transition{Time: 20, State: trace.Idle}) {
		t.Fatalf("rank 0 transitions %v", tr.Transitions[0])
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSessions: an idle mark opens a session, the refusals and the
// work reply it meets are its attempts, and the active mark closes it
// as a success.
func TestSessions(t *testing.T) {
	r := NewActivityRecorder(1)
	r.Mark(0, 0, trace.Active)
	r.Mark(0, 50, trace.Idle)
	r.Record(0, 60, trace.EvNoWorkRecv, 0, 1)
	r.Record(0, 80, trace.EvWorkRecv, 0, 3)
	r.Mark(0, 80, trace.Active)
	tr := r.Finish(100)
	ss := tr.Sessions[0]
	if len(ss) != 1 {
		t.Fatalf("%d sessions", len(ss))
	}
	s := ss[0]
	if s.Start != 50 || s.End != 80 || s.Attempts != 2 || s.Failed != 1 || !s.Success {
		t.Fatalf("session %+v", s)
	}
	if s.Duration() != 30 {
		t.Fatalf("duration %v", s.Duration())
	}
}

// TestOpenSessionClosedAtFinish: a session still open when the run
// ends closes at the makespan, without success; so does one a crash
// closed after it.
func TestOpenSessionClosedAtFinish(t *testing.T) {
	r := NewActivityRecorder(2)
	r.Mark(0, 90, trace.Idle)
	r.Mark(1, 20, trace.Idle)
	r.Record(1, 140, trace.EvCrash, -1, 0)
	tr := r.Finish(100)
	want := trace.Session{Start: 90, End: 100}
	if s := tr.Sessions[0]; len(s) != 1 || s[0] != want {
		t.Fatalf("open session not closed by Finish: %+v", s)
	}
	want = trace.Session{Start: 20, End: 100}
	if s := tr.Sessions[1]; len(s) != 1 || s[0] != want {
		t.Fatalf("session a late crash closed not clipped to the makespan: %+v", s)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAttemptOutsideSessionIgnored: steal outcomes on a rank with no
// open session — one that never went idle, or a working rank banking a
// late reply — count nothing and open nothing.
func TestAttemptOutsideSessionIgnored(t *testing.T) {
	r := NewActivityRecorder(2)
	r.Mark(1, 0, trace.Active)
	r.Record(0, 1, trace.EvNoWorkRecv, 1, 1)
	r.Record(0, 2, trace.EvStealAbort, 1, 2)
	r.Record(1, 3, trace.EvWorkRecv, 0, 4)
	r.Mark(1, 5, trace.Idle)
	r.Mark(1, 9, trace.Active)
	tr := r.Finish(10)
	if len(tr.Sessions[0]) != 0 {
		t.Fatal("phantom session recorded")
	}
	if s := tr.Sessions[1]; len(s) != 1 || s[0] != (trace.Session{Start: 5, End: 9, Success: true}) {
		t.Fatalf("banked reply counted in a later session: %+v", s)
	}
}

// TestCrashFold: a crash closes an idle rank's session without
// success, and marks an active rank idle without opening one.
func TestCrashFold(t *testing.T) {
	r := NewActivityRecorder(2)
	r.Mark(0, 0, trace.Idle)
	r.Record(0, 3, trace.EvNoWorkRecv, 1, 1)
	r.Record(0, 7, trace.EvCrash, -1, 0)
	r.Mark(1, 0, trace.Active)
	r.Record(1, 8, trace.EvCrash, -1, 12)
	tr := r.Finish(20)
	if s := tr.Sessions[0]; len(s) != 1 || s[0] != (trace.Session{Start: 0, End: 7, Attempts: 1, Failed: 1}) {
		t.Fatalf("idle crash: sessions %+v", s)
	}
	want := []trace.Transition{{Time: 0, State: trace.Active}, {Time: 8, State: trace.Idle}}
	if !slices.Equal(tr.Transitions[1], want) || len(tr.Sessions[1]) != 0 {
		t.Fatalf("active crash: transitions %v, sessions %+v", tr.Transitions[1], tr.Sessions[1])
	}
}

// refRecorder is the explicit-call activity recorder the fold replaced:
// the engine opened, counted and closed every session itself. It is the
// reference FuzzRecorderSessions holds the fold to.
type refRecorder struct {
	transitions [][]trace.Transition
	sessions    [][]trace.Session
	open        []trace.Session
	hasOpen     []bool
}

func newRefRecorder(n int) *refRecorder {
	return &refRecorder{
		transitions: make([][]trace.Transition, n),
		sessions:    make([][]trace.Session, n),
		open:        make([]trace.Session, n),
		hasOpen:     make([]bool, n),
	}
}

func (r *refRecorder) record(rank int, t sim.Time, s trace.State) {
	tr := r.transitions[rank]
	if len(tr) == 0 && s == trace.Idle || len(tr) > 0 && tr[len(tr)-1].State == s {
		return
	}
	r.transitions[rank] = append(tr, trace.Transition{Time: t, State: s})
}

func (r *refRecorder) beginSession(rank int, t sim.Time) {
	r.open[rank], r.hasOpen[rank] = trace.Session{Start: t}, true
}

func (r *refRecorder) sessionAttempt(rank int, failed bool) {
	if !r.hasOpen[rank] {
		return
	}
	r.open[rank].Attempts++
	if failed {
		r.open[rank].Failed++
	}
}

func (r *refRecorder) endSession(rank int, t sim.Time, success bool) {
	if !r.hasOpen[rank] {
		return
	}
	s := r.open[rank]
	s.End, s.Success = t, success
	r.sessions[rank] = append(r.sessions[rank], s)
	r.hasOpen[rank] = false
}

// finish closes the open sessions at end and applies the clip: no
// session ends past end.
func (r *refRecorder) finish(end sim.Time) *trace.Trace {
	for rank := range r.open {
		r.endSession(rank, end, false)
	}
	for _, ss := range r.sessions {
		for i := range ss {
			ss[i].End = min(ss[i].End, end)
		}
	}
	return &trace.Trace{End: end, Transitions: r.transitions, Sessions: r.sessions}
}

// FuzzRecorderSessions: for any rank count up to 4 and any sequence of
// idle and active marks, steal outcomes, crashes and other events at
// non-decreasing times, at either level, the fold gives the sessions
// and transitions the explicit-call reference gives when driven the
// way the engine drove it — goIdle recorded idle and began a session,
// resume ended it as a success and recorded active, each steal outcome
// counted an attempt, and a crash recorded idle on a working rank
// (tracked here by the marks, not read off the transitions) or ended
// the session of an idle one. The trace validates and every session
// lies inside one idle phase of its rank. Each op takes 2 bytes of
// data, reused cyclically: the rank and the op, and the time step.
// The Finish instant lies back from the last op by up to back, though
// never before a mark or a working rank's crash (an engine makes those
// before detection only), so idle ranks' crashes after it test the
// clip.
func FuzzRecorderSessions(f *testing.F) {
	f.Add(uint8(0), false, uint16(0), uint16(12), []byte{0, 1, 8, 2, 16, 1, 24, 0, 8, 3})
	f.Add(uint8(2), true, uint16(9), uint16(60), []byte{0, 0, 1, 1, 9, 2, 10, 1, 2, 3, 18, 0, 11, 2, 5, 1, 13, 1, 3, 0})
	f.Add(uint8(3), false, uint16(40), uint16(200), []byte{5, 3, 12, 1, 20, 2, 7, 0, 33, 3, 46, 1, 14, 2, 1, 0, 22, 1})
	f.Add(uint8(1), true, uint16(3), uint16(30), []byte{1, 1, 40, 2, 0, 1, 8, 1, 41, 3, 9, 0})
	kinds := []trace.EventKind{trace.EvStealSend, trace.EvStealRecv, trace.EvWorkSend, trace.EvQuantumEnd, trace.EvTerminate}
	f.Fuzz(func(t *testing.T, ranksIn uint8, events bool, back, ops uint16, data []byte) {
		if len(data) == 0 {
			return
		}
		ranks := 1 + int(ranksIn%4)
		r := NewActivityRecorder(ranks)
		if events {
			r = NewRecorder(ranks, 4)
		}
		ref := newRefRecorder(ranks)
		active := make([]bool, ranks)
		now, floor := sim.Time(0), sim.Time(0)
		for i := 0; i < int(ops%512); i++ {
			b0, b1 := data[2*i%len(data)], data[(2*i+1)%len(data)]
			rank := int(b0) % ranks
			now += sim.Time(b1 % 4)
			switch op := b0 / 4 % 8; op {
			case 0: // goIdle
				r.Mark(rank, now, trace.Idle)
				ref.record(rank, now, trace.Idle)
				if !ref.hasOpen[rank] {
					ref.beginSession(rank, now)
				}
				active[rank], floor = false, now
			case 1: // resume
				r.Mark(rank, now, trace.Active)
				ref.endSession(rank, now, true)
				ref.record(rank, now, trace.Active)
				active[rank], floor = true, now
			case 2, 3, 4:
				kind := []trace.EventKind{trace.EvWorkRecv, trace.EvNoWorkRecv, trace.EvStealAbort}[op-2]
				r.Record(rank, now, kind, 0, 1)
				ref.sessionAttempt(rank, kind != trace.EvWorkRecv)
			case 5: // crashRank
				r.Record(rank, now, trace.EvCrash, -1, 0)
				if active[rank] {
					ref.record(rank, now, trace.Idle)
					floor = now
				} else {
					ref.endSession(rank, now, false)
				}
				active[rank] = false
			default:
				r.Record(rank, now, kinds[int(b1)%len(kinds)], -1, int64(b1))
			}
		}
		end := max(floor, now-sim.Time(back%64))
		got, want := r.Finish(end), ref.finish(end)
		for rank := range ranks {
			if !slices.Equal(got.Transitions[rank], want.Transitions[rank]) {
				t.Fatalf("rank %d transitions %v, the reference %v", rank, got.Transitions[rank], want.Transitions[rank])
			}
			if !slices.Equal(got.Sessions[rank], want.Sessions[rank]) {
				t.Fatalf("rank %d sessions %+v, the reference %+v", rank, got.Sessions[rank], want.Sessions[rank])
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		for rank, ss := range got.Sessions {
			for _, s := range ss {
				if !insideIdlePhase(got.Transitions[rank], s, end) {
					t.Fatalf("rank %d session %+v is not inside one idle phase of %v", rank, s, got.Transitions[rank])
				}
			}
		}
	})
}

// insideIdlePhase reports whether s lies inside one idle phase of a
// rank with transitions trs and a run ending at end: from time 0 or an
// idle transition up to the next active transition or end.
func insideIdlePhase(trs []trace.Transition, s trace.Session, end sim.Time) bool {
	from := sim.Time(0)
	idle := true
	for _, tr := range trs {
		if tr.State == trace.Active && idle && from <= s.Start && s.End <= tr.Time {
			return true
		}
		idle = tr.State == trace.Idle
		from = tr.Time
	}
	return idle && from <= s.Start && s.End <= end
}
