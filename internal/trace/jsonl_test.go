package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"distws/internal/sim"
)

// writeJSONLReference is WriteJSONL as it was before the append
// encoder: one reflective json.Encoder.Encode of a jsonRecord per line.
// It is the oracle the hand-written encoder must match byte for byte.
func writeJSONLReference(t *Trace, w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonRecord{Kind: "meta", Ranks: t.Ranks(), End: t.End}); err != nil {
		return err
	}
	for rank, trs := range t.Transitions {
		for _, tr := range trs {
			if err := enc.Encode(jsonRecord{Kind: "transition", Rank: rank, Time: tr.Time, State: tr.State.String()}); err != nil {
				return err
			}
		}
	}
	for rank, ss := range t.Sessions {
		for _, s := range ss {
			if err := enc.Encode(jsonRecord{
				Kind: "session", Rank: rank,
				Start: s.Start, End: s.End,
				Attempts: s.Attempts, Failed: s.Failed, Success: s.Success,
			}); err != nil {
				return err
			}
		}
	}
	for rank, es := range t.Events {
		for _, e := range es {
			if err := enc.Encode(jsonRecord{
				Kind: "event", Rank: rank, Time: e.Time,
				Ev: e.Kind.String(), Peer: int(e.Peer), Arg: e.Arg,
			}); err != nil {
				return err
			}
		}
	}
	for rank, d := range t.EventsDropped {
		if d == 0 {
			continue
		}
		if err := enc.Encode(jsonRecord{Kind: "drops", Rank: rank, Arg: int64(d)}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// fuzzSrc deals values out of a fuzz input; an exhausted input deals
// zeros, so every input decodes to some trace.
type fuzzSrc struct{ b []byte }

func (s *fuzzSrc) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return v
}

// edgeInts are the values an integer field is most likely to be
// mis-encoded at: the omitted zero, signs, and the width limits.
var edgeInts = [...]int64{0, 1, -1, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64, 1 << 53}

// int64 deals an edge value or a small signed number.
func (s *fuzzSrc) int64() int64 {
	b := s.byte()
	if int(b) < len(edgeInts) {
		return edgeInts[b]
	}
	return int64(int8(s.byte())) * int64(b)
}

// times deals n non-decreasing timestamps (ReadJSONL orders each rank's
// records by time, so only ordered input can round-trip). The first may
// be zero or negative and steps of zero repeat a nanosecond.
func (s *fuzzSrc) times(n int) []sim.Time {
	ts := make([]sim.Time, n)
	now := sim.Time(int8(s.byte()))
	for i := range ts {
		now += sim.Time(s.byte() % 4)
		ts[i] = now
	}
	return ts
}

// traceFromFuzz decodes a trace in the canonical shape ReadJSONL
// produces (nil for an empty rank, Events nil unless some rank has one,
// EventsDropped present exactly when Events is) but with arbitrary
// field values, including event kinds past the taxonomy. valid reports
// whether ReadJSONL must accept what WriteJSONL makes of it.
func traceFromFuzz(data []byte) (t *Trace, valid bool) {
	s := &fuzzSrc{b: data}
	ranks := 1 + int(s.byte()%4)
	t = &Trace{
		End:         sim.Time(s.int64()),
		Transitions: make([][]Transition, ranks),
		Sessions:    make([][]Session, ranks),
	}
	valid = true
	events := make([][]Event, ranks)
	dropped := make([]uint64, ranks)
	total := 0
	for r := 0; r < ranks; r++ {
		for _, at := range s.times(int(s.byte() % 4)) {
			t.Transitions[r] = append(t.Transitions[r], Transition{Time: at, State: State(s.byte() % 2)})
		}
		for n := int(s.byte() % 3); n > 0; n-- {
			t.Sessions[r] = append(t.Sessions[r], Session{
				Start: sim.Time(s.int64()), End: sim.Time(s.int64()),
				Attempts: int(s.int64()), Failed: int(s.int64()), Success: s.byte()%2 == 1,
			})
		}
		for _, at := range s.times(int(s.byte() % 6)) {
			k := EventKind(s.byte() % uint8(NumEventKinds+2))
			valid = valid && k < NumEventKinds
			events[r] = append(events[r], Event{Time: at, Kind: k, Peer: int32(s.int64()), Arg: s.int64()})
			total++
		}
		// A drop count past MaxInt64 has no wire form ReadJSONL takes.
		dropped[r] = uint64(s.int64()) & math.MaxInt64
	}
	if total > 0 {
		t.Events, t.EventsDropped = events, dropped
	}
	return t, valid
}

// FuzzJSONLRoundTrip holds the append encoder to the encoding/json
// oracle byte for byte, and the wire format to losslessness.
func FuzzJSONLRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 2, 0, 1, 1, 2, 0, 1, 2, 3, 4, 5, 1, 5, 0, 1, 0, 2, 0, 1, 9, 2, 3, 19, 3, 6, 20, 0, 0})
	f.Add(bytes.Repeat([]byte{0xff, 5, 7, 1}, 64))
	f.Add(bytes.Repeat([]byte{2, 3, 0, 6, 1}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, valid := traceFromFuzz(data)
		var got, want bytes.Buffer
		if err := tr.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		if err := writeJSONLReference(tr, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("encoder diverges from encoding/json:\n got %s\nwant %s", got.Bytes(), want.Bytes())
		}
		back, err := ReadJSONL(&got)
		if !valid {
			if err == nil {
				t.Fatal("an event of unknown kind was read back")
			}
			return
		}
		if err != nil {
			t.Fatalf("ReadJSONL rejects WriteJSONL's output: %v\n%s", err, want.Bytes())
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back, tr)
		}
	})
}

// FuzzReadJSONL feeds the reader raw bytes: it may refuse them, it may
// not panic, and what it accepts Validate must be able to judge.
func FuzzReadJSONL(f *testing.F) {
	var buf bytes.Buffer
	if err := eventTrace().WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"kind":"meta","ranks":2,"end":9}` + "\n" + `{"kind":"event","rank":1,"ev":"terminate","peer":-1}` + "\n" + `{"kind":"drops","arg":3}`))
	f.Add([]byte(`{"kind":"meta","ranks":99999999999}`))
	f.Add([]byte(`{"kind":"meta","ranks":1}` + "\n" + `{"kind":"event","ev":"steal-send","peer":4294967296}`))
	f.Add([]byte(`{"kind":"meta","ranks":1}` + "\n" + `{"kind":"transition","state":"bogus"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if tr, err := ReadJSONL(bytes.NewReader(data)); err == nil {
			_ = tr.Validate()
		}
	})
}

// TestReadJSONLRejectsBadFields is the corrupt-input table for values
// that parse as JSON but have no meaning in a trace.
func TestReadJSONLRejectsBadFields(t *testing.T) {
	meta := `{"kind":"meta","ranks":2,"end":10}` + "\n"
	for _, tc := range []struct{ name, line, want string }{
		{"unknown state", `{"kind":"transition","rank":1,"t":3,"state":"bogus"}`, `line 2: unknown state "bogus"`},
		{"missing state", `{"kind":"transition","rank":1,"t":3}`, `line 2: unknown state ""`},
		{"unknown event kind", `{"kind":"event","ev":"steal-sendd"}`, "line 2: unknown event kind"},
		{"peer past int32", `{"kind":"event","ev":"steal-send","peer":2147483648}`, "line 2: peer 2147483648"},
		{"peer below int32", `{"kind":"event","ev":"steal-send","peer":-2147483649}`, "line 2: peer -2147483649"},
		{"negative drops", `{"kind":"drops","arg":-1}`, "line 2: negative drop count"},
	} {
		_, err := ReadJSONL(strings.NewReader(meta + tc.line + "\n"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := ReadJSONL(strings.NewReader(`{"kind":"meta","ranks":1048577}` + "\n")); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("rank count past MaxRanks: got error %v", err)
	}
}

// syntheticTrace is a fixed trace of ranks × perRank events cycling
// through every kind, with the peer and arg shapes real runs have.
func syntheticTrace(ranks, perRank int) *Trace {
	t := &Trace{
		End:           sim.Time(perRank) * 100,
		Transitions:   make([][]Transition, ranks),
		Sessions:      make([][]Session, ranks),
		Events:        make([][]Event, ranks),
		EventsDropped: make([]uint64, ranks),
	}
	for r := range t.Events {
		t.Transitions[r] = []Transition{{Time: sim.Time(r), State: Active}, {Time: t.End, State: Idle}}
		t.Sessions[r] = []Session{{Start: sim.Time(r), End: t.End, Attempts: r, Failed: r / 2, Success: r%2 == 0}}
		es := make([]Event, perRank)
		for i := range es {
			k := EventKind(i % int(NumEventKinds))
			peer := int32((r + i) % ranks)
			if k == EvQuantumStart || k == EvQuantumEnd || k == EvTerminate {
				peer = -1
			}
			es[i] = Event{Time: sim.Time(i) * 97, Kind: k, Peer: peer, Arg: int64(i) * 31}
		}
		t.Events[r] = es
	}
	t.EventsDropped[ranks-1] = 7
	return t
}

// TestWriteJSONLAllocBudget: the encoder allocates its buffer, not its
// records — the count does not depend on the trace's size.
func TestWriteJSONLAllocBudget(t *testing.T) {
	for _, tr := range []*Trace{syntheticTrace(2, 5), syntheticTrace(100, 1000)} {
		allocs := testing.AllocsPerRun(5, func() {
			if err := tr.WriteJSONL(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("WriteJSONL of %d events: %.0f allocs, budget 4", tr.TotalEvents(), allocs)
		}
	}
	// The budget is only worth having if the cheap encoder is also the
	// right one at this size.
	tr := syntheticTrace(100, 1000)
	var got, want bytes.Buffer
	if err := tr.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONLReference(tr, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("100k-event export differs from the encoding/json reference")
	}
}

// BenchmarkTraceExport prices the JSONL export: one op is a whole
// 100 000-event trace, reported per event as well.
func BenchmarkTraceExport(b *testing.B) {
	tr := syntheticTrace(100, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteJSONL(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.TotalEvents()), "ns/event")
}
