package trace

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"distws/internal/sim"
)

func TestSessionDurationsAndTotal(t *testing.T) {
	tr := &Trace{End: 50, Transitions: make([][]Transition, 2), Sessions: [][]Session{
		{{Start: 0, End: 10, Success: true}},
		{{Start: 0, End: 30, Success: true}},
	}}
	if d0, d1 := tr.Sessions[0][0].Duration(), tr.Sessions[1][0].Duration(); d0 != 10 || d1 != 30 {
		t.Fatalf("session durations %v, %v, want 10, 30", d0, d1)
	}
	if tr.TotalSessions() != 2 {
		t.Fatalf("TotalSessions = %d", tr.TotalSessions())
	}
	if n := (&Trace{End: 10, Transitions: make([][]Transition, 1), Sessions: make([][]Session, 1)}).TotalSessions(); n != 0 {
		t.Fatalf("empty trace has %d sessions", n)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mk := func() *Trace {
		return &Trace{
			End:         100,
			Transitions: [][]Transition{{{10, Active}, {20, Idle}}},
			Sessions:    [][]Session{{{Start: 20, End: 100}}},
		}
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
	// A session lies in [0, End]: none outlasts the run, the way the
	// terminate broadcast's arrival once closed them.
	bad5 := mk()
	bad5.Sessions[0][0].End = 101
	if bad5.Validate() == nil {
		t.Fatal("session ending past End accepted")
	}
	bad6 := mk()
	bad6.Sessions[0][0].Start = -1
	if bad6.Validate() == nil {
		t.Fatal("session starting before 0 accepted")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	orig := &Trace{
		End:         100,
		Transitions: [][]Transition{{{10, Active}, {90, Idle}}, nil, {{5, Active}}},
		Sessions: [][]Session{
			{{Start: 90, End: 100}},
			{{Start: 0, End: 44, Attempts: 1, Failed: 1, Success: true}},
			nil,
		},
	}

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

// Property: any schedule of the shape a recorder writes — alternating
// transitions from active on, each idle phase one session closed at
// the next transition or at End — passes Validate.
func TestPropertyRecorderInvariants(t *testing.T) {
	f := func(gaps []uint8) bool {
		tr := &Trace{Transitions: make([][]Transition, 1), Sessions: make([][]Session, 1)}
		now := sim.Time(10)
		state := Active
		for _, g := range gaps {
			now = now.Add(sim.Duration(g) + 1)
			if state == Active {
				if ss := tr.Sessions[0]; len(ss) > 0 {
					ss[len(ss)-1].End, ss[len(ss)-1].Success = now, true
				}
			} else {
				tr.Sessions[0] = append(tr.Sessions[0], Session{Start: now, End: -1})
			}
			tr.Transitions[0] = append(tr.Transitions[0], Transition{now, state})
			state = 1 - state
		}
		tr.End = now.Add(10)
		if ss := tr.Sessions[0]; len(ss) > 0 && ss[len(ss)-1].End < 0 {
			ss[len(ss)-1].End = tr.End
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
