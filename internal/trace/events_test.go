package trace

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// eventTrace builds a small two-rank trace with a protocol event log:
// rank 1 steals from rank 0 once (refused), then once successfully.
func eventTrace() *Trace {
	t := &Trace{
		End:         100,
		Transitions: [][]Transition{{{0, Active}}, {{40, Active}}},
	}
	t.Events = [][]Event{
		{
			{Time: 5, Kind: EvStealRecv, Peer: 1, Arg: 1},
			{Time: 5, Kind: EvNoWorkSend, Peer: 1, Arg: 1},
			{Time: 25, Kind: EvStealRecv, Peer: 1, Arg: 2},
			{Time: 25, Kind: EvWorkSend, Peer: 1, Arg: 8},
			{Time: 100, Kind: EvTerminate, Peer: -1},
		},
		{
			{Time: 0, Kind: EvStealSend, Peer: 0, Arg: 1},
			{Time: 10, Kind: EvNoWorkRecv, Peer: 0, Arg: 1},
			{Time: 20, Kind: EvStealSend, Peer: 0, Arg: 2},
			{Time: 40, Kind: EvWorkRecv, Peer: 0, Arg: 8},
			{Time: 101, Kind: EvTerminate, Peer: -1},
		},
	}
	t.EventsDropped = []uint64{0, 3}
	return t
}

func TestEventKindNames(t *testing.T) {
	for k := EventKind(0); k < NumEventKinds; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := ParseEventKind(name)
		if !ok || back != k {
			t.Fatalf("ParseEventKind(%q) = %v, %v; want %v", name, back, ok, k)
		}
	}
	if _, ok := ParseEventKind("nonsense"); ok {
		t.Fatal("parsed a nonsense kind")
	}
}

func TestEventsJSONLRoundTrip(t *testing.T) {
	tr := eventTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("source trace invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped trace invalid: %v", err)
	}
	if !reflect.DeepEqual(tr.Events, back.Events) {
		t.Fatalf("events changed in round trip:\n got %+v\nwant %+v", back.Events, tr.Events)
	}
	if !reflect.DeepEqual(tr.EventsDropped, back.EventsDropped) {
		t.Fatalf("drop counts changed: got %v want %v", back.EventsDropped, tr.EventsDropped)
	}
	if back.TotalEvents() != 10 {
		t.Fatalf("TotalEvents = %d, want 10", back.TotalEvents())
	}
	if back.TotalEventsDropped() != 3 {
		t.Fatalf("TotalEventsDropped = %d, want 3", back.TotalEventsDropped())
	}
	counts := back.EventCounts()
	if counts[EvStealSend] != 2 || counts[EvWorkRecv] != 1 || counts[EvTerminate] != 2 {
		t.Fatalf("unexpected event counts %v", counts)
	}
}

func TestEventlessTraceHasNilEvents(t *testing.T) {
	tr := &Trace{End: 10, Transitions: [][]Transition{{{0, Active}}}}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Events != nil || back.EventsDropped != nil {
		t.Fatal("eventless trace grew event fields on round trip")
	}
}

func TestEventValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Trace)
	}{
		{"unknown kind", func(tr *Trace) { tr.Events[0][0].Kind = NumEventKinds }},
		{"bad peer", func(tr *Trace) { tr.Events[0][0].Peer = 99 }},
		{"negative time", func(tr *Trace) { tr.Events[0][0].Time = -1 }},
		{"out of order", func(tr *Trace) { tr.Events[0][0].Time = 90 }},
		{"rank mismatch", func(tr *Trace) { tr.Events = tr.Events[:1] }},
	}
	for _, tc := range cases {
		tr := eventTrace()
		tc.mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt trace", tc.name)
		}
	}
}

// --- reader hardening ---------------------------------------------------

func TestReadJSONLCorruptLine(t *testing.T) {
	tr := eventTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	lines[2] = `{"kind": "transition", "rank": oops}`
	_, err := ReadJSONL(strings.NewReader(strings.Join(lines, "\n")))
	if err == nil {
		t.Fatal("corrupt line accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error does not name the corrupt line: %v", err)
	}
}

func TestReadJSONLTruncatedFile(t *testing.T) {
	tr := eventTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// Cut the file mid-record, as a crashed writer would leave it.
	cut := buf.String()[:buf.Len()-9]
	_, err := ReadJSONL(strings.NewReader(cut))
	if err == nil {
		t.Fatal("truncated file accepted")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("error does not mention truncation: %v", err)
	}
}

func TestReadJSONLOversizedLine(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(`{"kind":"meta","ranks":1,"end":10}` + "\n")
	buf.WriteString(`{"kind":"transition","rank":0,"state":"`)
	buf.WriteString(strings.Repeat("x", MaxLineBytes+1))
	buf.WriteString(`"}` + "\n")
	_, err := ReadJSONL(&buf)
	if err == nil {
		t.Fatal("oversized line accepted")
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("error does not mention the size limit: %v", err)
	}
}

func TestReadJSONLEmptyAndGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := ReadJSONL(strings.NewReader("\x00\x01binary\x02")); err == nil {
		t.Fatal("binary garbage accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"kind":"meta","ranks":1,"end":5}` + "\n" + `{"kind":"wat"}`)); err == nil {
		t.Fatal("unknown record kind accepted")
	}
	// Blank lines between records are tolerated.
	ok := `{"kind":"meta","ranks":1,"end":5}` + "\n\n" + `{"kind":"transition","rank":0,"t":1,"state":"active"}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(ok)); err != nil {
		t.Fatalf("blank line rejected: %v", err)
	}
}

// errReader fails after its content to exercise scanner error paths.
type errReader struct {
	r    io.Reader
	done bool
}

func (e *errReader) Read(p []byte) (int, error) {
	if !e.done {
		n, err := e.r.Read(p)
		if err == io.EOF {
			e.done = true
			return n, nil
		}
		return n, err
	}
	return 0, io.ErrUnexpectedEOF
}

func TestReadJSONLReaderError(t *testing.T) {
	_, err := ReadJSONL(&errReader{r: strings.NewReader(`{"kind":"meta","ranks":1,"end":5}` + "\n")})
	if err == nil {
		t.Fatal("reader error swallowed")
	}
}
