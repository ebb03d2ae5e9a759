package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"distws/internal/sim"
)

func TestValidateCatchesCorruption(t *testing.T) {
	mk := func() *Trace {
		return &Trace{
			End:         100,
			Transitions: [][]Transition{{{10, Active}, {20, Idle}}},
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
	bad4.Transitions[0][0].Time = -1 // before the run
	if bad4.Validate() == nil {
		t.Fatal("transition before 0 accepted")
	}
	bad5 := mk()
	bad5.Transitions[0] = bad5.Transitions[0][1:] // starts idle
	if bad5.Validate() == nil {
		t.Fatal("first transition idle accepted")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	orig := &Trace{
		End:         100,
		Transitions: [][]Transition{{{10, Active}, {90, Idle}}, nil, {{5, Active}}},
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
	// Sessions are derived from the transitions (obs.EachSession); the
	// record the trace once carried for them is an unknown kind.
	if _, err := ReadJSONL(bytes.NewBufferString(`{"kind":"meta","ranks":1,"end":10}` + "\n" + `{"kind":"session","end":10,"success":true}` + "\n")); err == nil || !strings.Contains(err.Error(), `unknown record kind "session"`) {
		t.Fatalf("session record: got error %v", err)
	}
}

// Property: any schedule of the shape a recorder writes — alternating
// transitions from active on, up to End — passes Validate.
func TestPropertyRecorderInvariants(t *testing.T) {
	f := func(gaps []uint8) bool {
		tr := &Trace{Transitions: make([][]Transition, 1)}
		now := sim.Time(10)
		state := Active
		for _, g := range gaps {
			now = now.Add(sim.Duration(g) + 1)
			tr.Transitions[0] = append(tr.Transitions[0], Transition{now, state})
			state = 1 - state
		}
		tr.End = now.Add(10)
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
