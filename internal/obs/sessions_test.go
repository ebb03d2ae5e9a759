package obs

import (
	"slices"
	"testing"

	"distws/internal/sim"
	"distws/internal/trace"
)

func TestRecorderDedupsAndOrders(t *testing.T) {
	r := new(Recorder).Reset(2, 0, false)
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

// span is one session as EachSession yields it.
type span struct {
	Start, End sim.Time
	Success    bool
}

// spans collects rank's sessions.
func spans(tr *trace.Trace, rank int) []span {
	var ss []span
	EachSession(tr, rank, func(start, end sim.Time, success bool) {
		ss = append(ss, span{start, end, success})
	})
	return ss
}

// TestSessions: an idle transition starts a session and the next
// active transition ends it as a success; a rank that did not start
// with work has one from 0, a rank that did has none there.
func TestSessions(t *testing.T) {
	r := new(Recorder).Reset(2, 0, false)
	r.Mark(0, 0, trace.Active)
	r.Mark(0, 50, trace.Idle)
	r.Mark(0, 80, trace.Active)
	r.Mark(1, 0, trace.Idle)
	r.Mark(1, 30, trace.Active)
	tr := r.Finish(100)
	if got, want := spans(tr, 0), []span{{50, 80, true}}; !slices.Equal(got, want) {
		t.Fatalf("rank 0 sessions %v, want %v", got, want)
	}
	if got, want := spans(tr, 1), []span{{0, 30, true}}; !slices.Equal(got, want) {
		t.Fatalf("rank 1 sessions %v, want %v", got, want)
	}
}

// TestOpenSessionClosedAtFinish: a session still open when the run
// ends runs to the makespan, without success; so does one a crash
// after the makespan ends.
func TestOpenSessionClosedAtFinish(t *testing.T) {
	r := NewRecorder(3, 0)
	r.Mark(0, 0, trace.Active)
	r.Mark(0, 90, trace.Idle)
	r.Mark(1, 0, trace.Idle)
	r.Record(1, 140, trace.EvCrash, -1, 0)
	tr := r.Finish(100)
	if got, want := spans(tr, 0), []span{{90, 100, false}}; !slices.Equal(got, want) {
		t.Fatalf("open session not closed at the makespan: %v, want %v", got, want)
	}
	if got, want := spans(tr, 1), []span{{0, 100, false}}; !slices.Equal(got, want) {
		t.Fatalf("session a late crash ended not clipped to the makespan: %v, want %v", got, want)
	}
	if got, want := spans(tr, 2), []span{{0, 100, false}}; !slices.Equal(got, want) {
		t.Fatalf("a rank that never worked: %v, want %v", got, want)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashEndsSession: a crash ends an idle rank's session without
// success; a working rank's crash marks it idle at the crash instant,
// and that idle span is no session.
func TestCrashEndsSession(t *testing.T) {
	r := NewRecorder(2, 0)
	r.Mark(0, 0, trace.Idle)
	r.Record(0, 3, trace.EvNoWorkRecv, 1, 1)
	r.Record(0, 7, trace.EvCrash, -1, 0)
	r.Mark(1, 0, trace.Active)
	r.Mark(1, 2, trace.Idle)
	r.Mark(1, 4, trace.Active)
	r.Mark(1, 8, trace.Idle) // crashRank marks a working rank idle
	r.Record(1, 8, trace.EvCrash, -1, 12)
	tr := r.Finish(20)
	if got, want := spans(tr, 0), []span{{0, 7, false}}; !slices.Equal(got, want) {
		t.Fatalf("idle crash: sessions %v, want %v", got, want)
	}
	if got, want := spans(tr, 1), []span{{2, 4, true}}; !slices.Equal(got, want) {
		t.Fatalf("working crash: sessions %v, want %v", got, want)
	}
	// At the activity level the crash is not recorded: the idle span
	// after it runs to the end.
	act := &trace.Trace{End: tr.End, Transitions: tr.Transitions}
	if got, want := spans(act, 1), []span{{2, 4, true}, {8, 20, false}}; !slices.Equal(got, want) {
		t.Fatalf("working crash without the event log: sessions %v, want %v", got, want)
	}
}

// refRecorder is the explicit-call activity recorder the engine once
// drove: it opened and closed every session itself. It is the
// reference FuzzRecorderSessions holds the derived sessions to.
type refRecorder struct {
	transitions [][]trace.Transition
	sessions    [][]span
	open        []span
	hasOpen     []bool
}

func newRefRecorder(n int) *refRecorder {
	return &refRecorder{
		transitions: make([][]trace.Transition, n),
		sessions:    make([][]span, n),
		open:        make([]span, n),
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
	r.open[rank], r.hasOpen[rank] = span{Start: t}, true
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
func (r *refRecorder) finish(end sim.Time) {
	for rank := range r.open {
		r.endSession(rank, end, false)
	}
	for _, ss := range r.sessions {
		for i := range ss {
			ss[i].End = min(ss[i].End, end)
		}
	}
}

// FuzzRecorderSessions: for any rank count up to 4 and any sequence of
// idle and active marks, steal outcomes, crashes and other events at
// non-decreasing times, the transitions recorded at both levels equal
// the explicit-call reference's, and the sessions derived from the
// events-level trace equal the ones the reference gives when driven
// the way the engine drives it. Every rank starts at 0 seeded with
// work (active) or idle, as the workloads seed them (the low two bits
// of ranksIn give the rank count, the next four which ranks are
// seeded); goIdle records idle and begins a session, resume ends it as
// a success (or, at instant 0, drops it uncounted) and records active,
// and a working rank goes idle no earlier than instant 1, since a
// quantum takes time; a crash records idle on a working
// rank (tracked here by the marks, not read off the transitions) or
// ends the session of an idle one. Like the engine, a rank logs
// nothing after its crash but served-job records, and no mark of a
// rank shares its crash's instant before it, since the kernel runs a
// crash first at its instant. Each op takes 2 bytes of data, reused
// cyclically: the rank and the op, and the time step. The Finish
// instant lies back from the last op by up to back, though never
// before a mark or a working rank's crash (an engine makes those
// before detection only), so idle ranks' crashes after it test the
// clip. Ranks that never crash derive the same sessions at the
// activity level.
//
// The case EachSession documents as beyond the trace is checked as
// documented, not against the reference: a rank whose crash the
// served-job records evicted from its 4-event log derives what its
// transitions alone give.
func FuzzRecorderSessions(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint16(12), []byte{0, 1, 8, 2, 16, 1, 24, 0, 8, 3})
	f.Add(uint8(6), uint16(9), uint16(60), []byte{0, 0, 1, 1, 9, 2, 10, 1, 2, 3, 18, 0, 11, 2, 5, 1, 13, 1, 3, 0})
	f.Add(uint8(23), uint16(40), uint16(200), []byte{5, 3, 12, 1, 20, 2, 7, 0, 33, 3, 46, 1, 14, 2, 1, 0, 22, 1})
	f.Add(uint8(61), uint16(3), uint16(30), []byte{1, 1, 40, 2, 0, 1, 8, 1, 41, 3, 9, 0, 21, 0, 22, 2})
	f.Add(uint8(4), uint16(0), uint16(3), []byte{20, 1, 24, 2, 24, 3}) // job records after a working rank's crash
	kinds := []trace.EventKind{trace.EvStealSend, trace.EvStealRecv, trace.EvWorkSend, trace.EvQuantumEnd, trace.EvTerminate,
		trace.EvJobArrive, trace.EvJobAdmit, trace.EvJobReject, trace.EvJobDone, trace.EvJobLost}
	jobs := kinds[5:]
	const logCap = 4
	f.Fuzz(func(t *testing.T, ranksIn uint8, back, ops uint16, data []byte) {
		if len(data) == 0 {
			return
		}
		ranks := 1 + int(ranksIn%4)
		recs := []*Recorder{new(Recorder).Reset(ranks, 0, false), NewRecorder(ranks, logCap)}
		record := func(rank int, t sim.Time, kind trace.EventKind, arg int64) {
			for _, r := range recs {
				r.Record(rank, t, kind, 0, arg)
			}
		}
		mark := func(rank int, t sim.Time, s trace.State) {
			for _, r := range recs {
				r.Mark(rank, t, s)
			}
		}
		ref := newRefRecorder(ranks)
		active, crashed := make([]bool, ranks), make([]bool, ranks)
		jobsAfterCrash := make([]int, ranks)
		seeded := func(rank int) bool { return ranksIn>>(2+rank)&1 != 0 }
		for rank := range ranks {
			if seeded(rank) {
				mark(rank, 0, trace.Active)
				ref.record(rank, 0, trace.Active)
				active[rank] = true
			} else {
				mark(rank, 0, trace.Idle)
				ref.beginSession(rank, 0)
			}
		}
		now, floor := sim.Time(0), sim.Time(0)
		for i := 0; i < int(ops%512); i++ {
			b0, b1 := data[2*i%len(data)], data[(2*i+1)%len(data)]
			rank := int(b0) % ranks
			now += sim.Time(b1 % 4)
			if crashed[rank] {
				record(rank, now, jobs[int(b1)%len(jobs)], int64(b1))
				jobsAfterCrash[rank]++
				continue
			}
			switch op := b0 / 4 % 8; op {
			case 0: // goIdle
				if active[rank] && now == 0 {
					now = 1
				}
				mark(rank, now, trace.Idle)
				ref.record(rank, now, trace.Idle)
				if !ref.hasOpen[rank] {
					ref.beginSession(rank, now)
				}
				active[rank], floor = false, now
			case 1: // resume
				mark(rank, now, trace.Active)
				if now == 0 {
					ref.hasOpen[rank] = false
				}
				ref.endSession(rank, now, true)
				ref.record(rank, now, trace.Active)
				active[rank], floor = true, now
			case 5: // crashRank
				if trs := ref.transitions[rank]; len(trs) > 0 && trs[len(trs)-1].Time == now {
					now++
				}
				if active[rank] {
					mark(rank, now, trace.Idle)
					ref.record(rank, now, trace.Idle)
					floor = now
				} else {
					ref.endSession(rank, now, false)
				}
				record(rank, now, trace.EvCrash, 0)
				active[rank], crashed[rank] = false, true
			default:
				kind := kinds[int(b1)%len(kinds)]
				if op < 5 {
					kind = []trace.EventKind{trace.EvWorkRecv, trace.EvNoWorkRecv, trace.EvStealAbort}[op-2]
				}
				record(rank, now, kind, int64(b1))
			}
		}
		end := max(floor, now-sim.Time(back%64))
		activity, events := recs[0].Finish(end), recs[1].Finish(end)
		ref.finish(end)
		for rank := range ranks {
			want := ref.sessions[rank]
			for _, tr := range []*trace.Trace{activity, events} {
				if !slices.Equal(tr.Transitions[rank], ref.transitions[rank]) {
					t.Fatalf("rank %d transitions %v, the reference %v", rank, tr.Transitions[rank], ref.transitions[rank])
				}
			}
			if crashed[rank] && jobsAfterCrash[rank] >= logCap {
				want = spans(activity, rank) // the crash was evicted
			}
			if got := spans(events, rank); !slices.Equal(got, want) {
				t.Fatalf("rank %d sessions %+v, the reference %+v", rank, got, want)
			}
			if got := spans(activity, rank); !crashed[rank] && !slices.Equal(got, want) {
				t.Fatalf("rank %d sessions at the activity level %+v, the reference %+v", rank, got, want)
			}
		}
		for _, tr := range []*trace.Trace{activity, events} {
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
