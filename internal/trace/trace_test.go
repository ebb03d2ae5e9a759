package trace

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"distws/internal/sim"
)

func TestRecorderDedupsAndOrders(t *testing.T) {
	r := NewRecorder(2)
	r.Record(0, 0, Idle) // ranks start idle: no-op
	r.Record(0, 10, Active)
	r.Record(0, 15, Active) // duplicate state: no-op
	r.Record(0, 20, Idle)
	r.Record(1, 5, Active)
	tr := r.Finish(100)
	if len(tr.Transitions[0]) != 2 {
		t.Fatalf("rank 0 has %d transitions, want 2", len(tr.Transitions[0]))
	}
	if tr.Transitions[0][0] != (Transition{10, Active}) || tr.Transitions[0][1] != (Transition{20, Idle}) {
		t.Fatalf("rank 0 transitions %v", tr.Transitions[0])
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSessions(t *testing.T) {
	r := NewRecorder(1)
	r.Record(0, 0, Active)
	r.Record(0, 50, Idle)
	r.BeginSession(0, 50)
	r.SessionAttempt(0, true)
	r.SessionAttempt(0, false)
	r.EndSession(0, 80, true)
	r.Record(0, 80, Active)
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

func TestOpenSessionClosedAtFinish(t *testing.T) {
	r := NewRecorder(1)
	r.BeginSession(0, 90)
	tr := r.Finish(100)
	s := tr.Sessions[0][0]
	if s.End != 100 || s.Success {
		t.Fatalf("open session not closed by Finish: %+v", s)
	}
}

func TestDoubleBeginPanics(t *testing.T) {
	r := NewRecorder(1)
	r.BeginSession(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double BeginSession did not panic")
		}
	}()
	r.BeginSession(0, 2)
}

func TestAttemptOutsideSessionIgnored(t *testing.T) {
	r := NewRecorder(1)
	r.SessionAttempt(0, true) // no open session: no-op
	r.EndSession(0, 5, true)  // no open session: no-op
	tr := r.Finish(10)
	if len(tr.Sessions[0]) != 0 {
		t.Fatal("phantom session recorded")
	}
}

func TestSessionDurationsAndTotal(t *testing.T) {
	r := NewRecorder(2)
	r.BeginSession(0, 0)
	r.EndSession(0, 10, true)
	r.BeginSession(1, 0)
	r.EndSession(1, 30, true)
	tr := r.Finish(50)
	if d0, d1 := tr.Sessions[0][0].Duration(), tr.Sessions[1][0].Duration(); d0 != 10 || d1 != 30 {
		t.Fatalf("session durations %v, %v, want 10, 30", d0, d1)
	}
	if tr.TotalSessions() != 2 {
		t.Fatalf("TotalSessions = %d", tr.TotalSessions())
	}
	if n := NewRecorder(1).Finish(10).TotalSessions(); n != 0 {
		t.Fatalf("empty trace has %d sessions", n)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mk := func() *Trace {
		r := NewRecorder(1)
		r.Record(0, 10, Active)
		r.Record(0, 20, Idle)
		return r.Finish(100)
	}
	good := mk()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad1 := mk()
	bad1.Transitions[0][1].Time = 5 // out of order
	if bad1.Validate() == nil {
		t.Fatal("out-of-order transitions accepted")
	}
	bad2 := mk()
	bad2.Transitions[0][1].State = Active // repeated state
	if bad2.Validate() == nil {
		t.Fatal("repeated state accepted")
	}
	bad3 := mk()
	bad3.Transitions[0][0].Time = 101 // beyond end
	if bad3.Validate() == nil {
		t.Fatal("transition beyond End accepted")
	}
	bad4 := mk()
	bad4.Sessions[0] = []Session{{Start: 10, End: 5}}
	if bad4.Validate() == nil {
		t.Fatal("inverted session accepted")
	}
}

func TestSkewRoundTrip(t *testing.T) {
	r := NewRecorder(4)
	for rank := 0; rank < 4; rank++ {
		r.Record(rank, sim.Time(10*rank+100), Active)
		r.Record(rank, sim.Time(10*rank+500), Idle)
		r.BeginSession(rank, sim.Time(10*rank+500))
		r.EndSession(rank, sim.Time(10*rank+600), true)
	}
	orig := r.Finish(1000)
	skewed, offsets := orig.InjectSkew(42, 50)
	// Skew must actually move something.
	if reflect.DeepEqual(orig.Transitions, skewed.Transitions) {
		t.Fatal("skew injection changed nothing")
	}
	fixed := skewed.CorrectSkew(offsets)
	if !reflect.DeepEqual(orig.Transitions, fixed.Transitions) {
		t.Fatal("skew correction did not restore transitions")
	}
	if !reflect.DeepEqual(orig.Sessions, fixed.Sessions) {
		t.Fatal("skew correction did not restore sessions")
	}
}

func TestSkewClamping(t *testing.T) {
	r := NewRecorder(1)
	r.Record(0, 1, Active)
	r.Record(0, 999, Idle)
	orig := r.Finish(1000)
	skewed, _ := orig.InjectSkew(7, 5000)
	for _, tr := range skewed.Transitions[0] {
		if tr.Time < 0 || tr.Time > 1000 {
			t.Fatalf("skewed time %d outside [0, 1000]", tr.Time)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := NewRecorder(3)
	r.Record(0, 10, Active)
	r.Record(0, 90, Idle)
	r.Record(2, 5, Active)
	r.BeginSession(1, 0)
	r.SessionAttempt(1, true)
	r.EndSession(1, 44, true)
	orig := r.Finish(100)

	var buf bytes.Buffer
	if err := orig.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.End != orig.End || back.Ranks() != orig.Ranks() {
		t.Fatalf("meta mismatch: %+v", back)
	}
	if !reflect.DeepEqual(orig.Transitions, back.Transitions) {
		t.Fatalf("transitions mismatch:\n%v\n%v", orig.Transitions, back.Transitions)
	}
	if !reflect.DeepEqual(orig.Sessions, back.Sessions) {
		t.Fatalf("sessions mismatch:\n%v\n%v", orig.Sessions, back.Sessions)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewBufferString("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadJSONL(bytes.NewBufferString(`{"kind":"transition","rank":0}` + "\n")); err == nil {
		t.Fatal("missing meta accepted")
	}
	if _, err := ReadJSONL(bytes.NewBufferString(`{"kind":"meta","ranks":1,"end":10}` + "\n" + `{"kind":"transition","rank":7,"t":1}` + "\n")); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := ReadJSONL(bytes.NewBufferString(`{"kind":"meta","ranks":1,"end":10}` + "\n" + `{"kind":"bogus","rank":0}` + "\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// Property: for any alternating schedule, Validate passes and the skew
// round trip is the identity.
func TestPropertyRecorderInvariants(t *testing.T) {
	f := func(gaps []uint8, seed uint64) bool {
		r := NewRecorder(1)
		// Keep timestamps at least maxSkew (3) away from 0 and End so
		// injection never clamps; clamping is deliberately lossy.
		now := sim.Time(10)
		state := Active
		for _, g := range gaps {
			now = now.Add(sim.Duration(g) + 1)
			r.Record(0, now, state)
			if state == Active {
				state = Idle
			} else {
				state = Active
			}
		}
		tr := r.Finish(now.Add(10))
		if tr.Validate() != nil {
			return false
		}
		skewed, off := tr.InjectSkew(seed, 3)
		fixed := skewed.CorrectSkew(off)
		return reflect.DeepEqual(tr.Transitions, fixed.Transitions)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
