// Package trace holds the types of the lightweight scheduler activity
// trace the paper's scheduling-latency metric is computed from (§III),
// and of the protocol event log beside it, with the trace's structural
// checks and its JSONL form. internal/obs records a run's trace.
//
// A rank is *active* while its stack contains work — including the time
// it spends answering steal requests in between node expansions — and
// *idle* otherwise. The trace records only the transitions between the
// two states ("the trace only contains a time and the new state at each
// phase transition, so it is lightweight"); Figure 10's work-discovery
// sessions are the idle spans between them (internal/obs derives them).
//
// The paper corrects its traces for clock skew across nodes; a
// simulator's clocks are exact, so the transitions need no correction.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"distws/internal/sim"
)

// State is a rank's scheduling state.
type State uint8

// The two phases of the paper's activity model.
const (
	Idle State = iota
	Active
)

func (s State) String() string {
	if s == Active {
		return "active"
	}
	return "idle"
}

// Transition is one phase change of one rank.
type Transition struct {
	Time  sim.Time
	State State
}

// Trace is a complete recorded execution.
type Trace struct {
	// End is the application makespan (virtual time of termination).
	End sim.Time
	// Transitions per rank, time-ordered, states alternating.
	Transitions [][]Transition
	// Events is the protocol-level event log per rank, time-ordered;
	// nil when event recording (internal/obs) was disabled. Events can
	// carry timestamps past End: the terminate broadcast and in-flight
	// tokens land after detection at rank 0.
	Events [][]Event
	// EventsDropped counts, per rank, the events evicted from the
	// bounded recording ring (oldest first). Nonzero means the event
	// log is a suffix of the run, not the whole run.
	EventsDropped []uint64
}

// Ranks returns the number of ranks in the trace.
func (t *Trace) Ranks() int { return len(t.Transitions) }

// Validate checks the structural invariants of a trace: per-rank
// transitions start active, strictly alternate states and lie in
// [0, End] at non-decreasing times; events are in time order with
// known kinds and peers.
func (t *Trace) Validate() error {
	for rank, trs := range t.Transitions {
		for i, tr := range trs {
			if tr.Time < 0 || tr.Time > t.End {
				return fmt.Errorf("trace: rank %d transition %d at %d outside [0, %d]", rank, i, tr.Time, t.End)
			}
			if i > 0 {
				if trs[i-1].Time > tr.Time {
					return fmt.Errorf("trace: rank %d transitions out of order at %d", rank, i)
				}
				if trs[i-1].State == tr.State {
					return fmt.Errorf("trace: rank %d repeated state at %d", rank, i)
				}
			}
		}
		if len(trs) > 0 && trs[0].State != Active {
			return fmt.Errorf("trace: rank %d first transition is %v, want active", rank, trs[0].State)
		}
	}
	if t.Events != nil && len(t.Events) != len(t.Transitions) {
		return fmt.Errorf("trace: %d event ranks, %d transition ranks", len(t.Events), len(t.Transitions))
	}
	for rank, es := range t.Events {
		for i, e := range es {
			if e.Time < 0 {
				return fmt.Errorf("trace: rank %d event %d at negative time %d", rank, i, e.Time)
			}
			if e.Kind >= NumEventKinds {
				return fmt.Errorf("trace: rank %d event %d has unknown kind %d", rank, i, e.Kind)
			}
			if e.Peer < -1 || int(e.Peer) >= t.Ranks() {
				return fmt.Errorf("trace: rank %d event %d names invalid peer %d", rank, i, e.Peer)
			}
			if i > 0 && es[i-1].Time > e.Time {
				return fmt.Errorf("trace: rank %d events out of order at %d", rank, i)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// JSONL serialization

// jsonRecord is the wire form of one trace line: ReadJSONL's decode
// target, and the layout WriteJSONL reproduces by hand.
type jsonRecord struct {
	Kind  string   `json:"kind"` // "meta", "transition", "event" or "drops"
	Rank  int      `json:"rank,omitempty"`
	Time  sim.Time `json:"t,omitempty"`
	State string   `json:"state,omitempty"`
	End   sim.Time `json:"end,omitempty"`
	Ranks int      `json:"ranks,omitempty"`
	// Protocol-event fields. Peer 0 is omitted on the wire and decodes
	// back to 0, so omitempty is lossless here; Peer -1 (no peer) is
	// written explicitly. "drops" records reuse Arg for the count.
	Ev   string `json:"ev,omitempty"`
	Peer int    `json:"peer,omitempty"`
	Arg  int64  `json:"arg,omitempty"`
}

// jsonlBufSize is WriteJSONL's output buffer; jsonlMaxLine is the room
// one record needs at most (the longest, an event with four 20-digit
// fields, is under 200 bytes), so the buffer is flushed before a record
// that might not fit and never grows.
const (
	jsonlBufSize = 64 << 10
	jsonlMaxLine = 512
)

// WriteJSONL serializes the trace as JSON Lines: a meta record, then
// the transition and event records rank by rank, then one
// drops record per rank that evicted events. The bytes are exactly what
// encoding/json produces for jsonRecord — fields in declaration order,
// zero values omitted, so rank 0, time 0 and peer 0 leave no key while
// peer -1 is written out — which is the format ReadJSONL (and through it
// uts -in) parses. Records are appended into one reused buffer; nothing
// is allocated per record.
func (t *Trace) WriteJSONL(w io.Writer) error {
	buf := make([]byte, 0, jsonlBufSize)
	var headArr [48]byte
	var err error

	buf = recordHead(buf, "meta", 0)
	buf = appendField(buf, `,"end":`, int64(t.End))
	buf = appendField(buf, `,"ranks":`, int64(t.Ranks()))
	buf = append(buf, "}\n"...)

	for rank, trs := range t.Transitions {
		head := recordHead(headArr[:0], "transition", rank)
		for _, tr := range trs {
			if buf, err = startRecord(w, buf, head); err != nil {
				return err
			}
			buf = appendField(buf, `,"t":`, int64(tr.Time))
			buf = append(buf, `,"state":"`...)
			buf = append(buf, tr.State.String()...)
			buf = append(buf, "\"}\n"...)
		}
	}
	for rank, es := range t.Events {
		head := recordHead(headArr[:0], "event", rank)
		for i := range es {
			e := &es[i]
			if buf, err = startRecord(w, buf, head); err != nil {
				return err
			}
			buf = appendField(buf, `,"t":`, int64(e.Time))
			buf = append(buf, `,"ev":"`...)
			buf = append(buf, e.Kind.String()...)
			buf = append(buf, '"')
			buf = appendField(buf, `,"peer":`, int64(e.Peer))
			buf = appendField(buf, `,"arg":`, e.Arg)
			buf = append(buf, "}\n"...)
		}
	}
	for rank, d := range t.EventsDropped {
		if d == 0 {
			continue
		}
		if buf, err = startRecord(w, buf, recordHead(headArr[:0], "drops", rank)); err != nil {
			return err
		}
		buf = appendField(buf, `,"arg":`, int64(d))
		buf = append(buf, "}\n"...)
	}
	_, err = w.Write(buf)
	return err
}

// startRecord begins one more record with head, first writing buf out
// when the record might not fit.
func startRecord(w io.Writer, buf, head []byte) ([]byte, error) {
	if len(buf) > jsonlBufSize-jsonlMaxLine {
		if _, err := w.Write(buf); err != nil {
			return buf, err
		}
		buf = buf[:0]
	}
	return append(buf, head...), nil
}

// recordHead appends the part of a record every line of one rank
// shares: the opening brace, the kind and the rank (omitted when 0).
func recordHead(dst []byte, kind string, rank int) []byte {
	dst = append(dst, `{"kind":"`...)
	dst = append(dst, kind...)
	dst = append(dst, '"')
	return appendField(dst, `,"rank":`, int64(rank))
}

// appendField appends key and v unless v is zero (omitempty).
func appendField(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// MaxLineBytes bounds one JSONL record line on read. Records written
// by WriteJSONL are a few hundred bytes; a line past this limit means
// the input is not a trace (binary junk, a concatenated corpus, a
// pathological generator) and is rejected with a clear error instead
// of being silently split or ballooning memory.
const MaxLineBytes = 1 << 20

// MaxRanks bounds the rank count ReadJSONL accepts: the per-rank tables
// are allocated from the meta record before any other line is seen, so
// an absurd count must be an error, not an allocation.
const MaxRanks = 1 << 20

// lineReader yields one JSONL record per call with line-accurate
// errors for oversized, truncated, and corrupt input.
type lineReader struct {
	sc   *bufio.Scanner
	line int
}

func newLineReader(r io.Reader) *lineReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLineBytes)
	return &lineReader{sc: sc}
}

// next decodes the next non-blank line into rec. It returns io.EOF at
// clean end of input and a line-numbered error otherwise. A final line
// cut off mid-record (no trailing newline, partial JSON) is reported
// as truncated rather than as a bare syntax error.
func (lr *lineReader) next(rec *jsonRecord) error {
	for lr.sc.Scan() {
		lr.line++
		b := bytes.TrimSpace(lr.sc.Bytes())
		if len(b) == 0 {
			continue
		}
		*rec = jsonRecord{}
		if err := json.Unmarshal(b, rec); err != nil {
			var syn *json.SyntaxError
			if errors.As(err, &syn) && syn.Offset >= int64(len(b)) {
				return fmt.Errorf("trace: line %d: truncated record (file cut off mid-write?): %w", lr.line, err)
			}
			return fmt.Errorf("trace: line %d: corrupt record: %w", lr.line, err)
		}
		return nil
	}
	if err := lr.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return fmt.Errorf("trace: line %d: record exceeds %d bytes — not a JSONL trace?", lr.line+1, MaxLineBytes)
		}
		return fmt.Errorf("trace: line %d: %w", lr.line+1, err)
	}
	return io.EOF
}

// ReadJSONL parses a trace previously written by WriteJSONL. Input is
// read line by line with a bounded buffer (MaxLineBytes); corrupt,
// truncated, or oversized lines produce errors naming the line.
func ReadJSONL(r io.Reader) (*Trace, error) {
	lr := newLineReader(r)
	var meta jsonRecord
	if err := lr.next(&meta); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("trace: empty input, expected meta record")
		}
		return nil, fmt.Errorf("trace: reading meta record: %w", err)
	}
	if meta.Kind != "meta" || meta.Ranks <= 0 {
		return nil, fmt.Errorf("trace: malformed meta record %+v", meta)
	}
	if meta.Ranks > MaxRanks {
		return nil, fmt.Errorf("trace: meta record claims %d ranks, limit %d", meta.Ranks, MaxRanks)
	}
	t := &Trace{
		End:         meta.End,
		Transitions: make([][]Transition, meta.Ranks),
	}
	for {
		var rec jsonRecord
		err := lr.next(&rec)
		if err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if rec.Rank < 0 || rec.Rank >= meta.Ranks {
			return nil, fmt.Errorf("trace: line %d: record for invalid rank %d", lr.line, rec.Rank)
		}
		switch rec.Kind {
		case "transition":
			var st State
			switch rec.State {
			case "idle":
				st = Idle
			case "active":
				st = Active
			default:
				return nil, fmt.Errorf("trace: line %d: unknown state %q", lr.line, rec.State)
			}
			t.Transitions[rec.Rank] = append(t.Transitions[rec.Rank], Transition{Time: rec.Time, State: st})
		case "event":
			kind, ok := ParseEventKind(rec.Ev)
			if !ok {
				return nil, fmt.Errorf("trace: line %d: unknown event kind %q", lr.line, rec.Ev)
			}
			if rec.Peer < math.MinInt32 || rec.Peer > math.MaxInt32 {
				return nil, fmt.Errorf("trace: line %d: peer %d does not fit a rank index", lr.line, rec.Peer)
			}
			if t.Events == nil {
				t.Events = make([][]Event, meta.Ranks)
			}
			t.Events[rec.Rank] = append(t.Events[rec.Rank], Event{
				Time: rec.Time, Kind: kind, Peer: int32(rec.Peer), Arg: rec.Arg,
			})
		case "drops":
			if t.EventsDropped == nil {
				t.EventsDropped = make([]uint64, meta.Ranks)
			}
			if rec.Arg < 0 {
				return nil, fmt.Errorf("trace: line %d: negative drop count %d", lr.line, rec.Arg)
			}
			t.EventsDropped[rec.Rank] = uint64(rec.Arg)
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record kind %q", lr.line, rec.Kind)
		}
	}
	for rank := range t.Transitions {
		sort.SliceStable(t.Transitions[rank], func(a, b int) bool {
			return t.Transitions[rank][a].Time < t.Transitions[rank][b].Time
		})
	}
	for rank := range t.Events {
		sort.SliceStable(t.Events[rank], func(a, b int) bool {
			return t.Events[rank][a].Time < t.Events[rank][b].Time
		})
	}
	if t.Events != nil && t.EventsDropped == nil {
		t.EventsDropped = make([]uint64, meta.Ranks)
	}
	return t, nil
}
