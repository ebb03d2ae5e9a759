package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"distws/internal/sim"
	"distws/internal/trace"
)

// chromeEvent is one record of the Chrome trace-event format. Field
// names are fixed by the format (Trace Event Format spec); timestamps
// are microseconds. Perfetto and chrome://tracing both load the
// {"traceEvents": [...]} JSON object form emitted here.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	ID    int            `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// usec converts virtual nanoseconds to trace microseconds.
func usec(t sim.Time) float64 { return float64(t) / 1e3 }

// HighlightSpan is one span rendered on the highlight track (PID 1) —
// the Chrome exporter's hook for derived analyses like the critical
// path. This package only draws the spans; internal/obs/causal computes
// them, keeping the exporter free of a dependency on the analysis.
type HighlightSpan struct {
	// Name labels the slice (e.g. a critical-path segment kind).
	Name string
	// Rank is attached as an argument so the viewer can cross-reference
	// the rank timeline the span came from.
	Rank       int
	Start, End sim.Time
}

// ParWindowSpan is one conservative time window rendered on the
// parallel-kernel process (PID 2). As with HighlightSpan, this package
// only draws the spans; internal/obs/parprof computes them from its
// window ledger, keeping the exporter free of the dependency.
type ParWindowSpan struct {
	Start, End sim.Time
	// Serialized windows render under their cause name so they stand
	// out from the "parallel" windows around them.
	Serialized bool
	// Cause names the serialization cause ("" for parallel windows).
	Cause string
	// MergedByShard[s] counts the staged messages merged into shard s's
	// kernel at the barrier that opened this window; nil when none.
	MergedByShard []uint32
}

// ChromeOptions selects the optional tracks of WriteChromeTraceOpts.
type ChromeOptions struct {
	// Highlight, when non-empty, adds a "critical path" process whose
	// single thread carries the given spans as slices.
	Highlight []HighlightSpan
	// ParWindows, when non-empty, adds a "parallel kernel" process:
	// one windows lane marking every barrier window (serialized ones
	// named by cause), plus one lane per shard carrying the shard's
	// barrier-merged message counts.
	ParWindows []ParWindowSpan
	// Pairs, when non-nil, are the trace's steal transactions for the
	// flow arrows — a caller that has paired them already (an
	// Analysis) hands them over; nil means PairSteals(tr).
	Pairs []StealPair
}

// WriteChromeTrace renders tr as Chrome trace-event JSON: one thread
// per rank, complete ("X") slices for active phases and work-discovery
// sessions, instant events for the protocol log, flow arrows for steal
// transactions, and an occupancy counter track. Load the file at
// ui.perfetto.dev (or chrome://tracing) to scrub through the run.
func WriteChromeTrace(w io.Writer, tr *trace.Trace) error {
	return WriteChromeTraceOpts(w, tr, ChromeOptions{})
}

// WriteChromeTraceOpts is WriteChromeTrace with optional extra tracks.
func WriteChromeTraceOpts(w io.Writer, tr *trace.Trace, opts ChromeOptions) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	// emit latches the first write error, so the tracks below read as
	// straight-line code; it is checked once, before the closing bracket.
	var err error
	first := true
	emit := func(e chromeEvent) {
		if err == nil && !first {
			err = bw.WriteByte(',')
		}
		if err == nil {
			err = enc.Encode(e) // Encode's trailing newline is valid JSON whitespace
		}
		first = false
	}

	emit(chromeEvent{
		Name: "process_name", Phase: "M", PID: 0,
		Args: map[string]any{"name": "distws simulation"},
	})
	for rank := 0; rank < tr.Ranks(); rank++ {
		emit(chromeEvent{
			Name: "thread_name", Phase: "M", PID: 0, TID: rank,
			Args: map[string]any{"name": rankLabel(rank)},
		})
	}

	// Active phases: each active transition opens a slice that closes
	// at the next transition (or at trace end).
	for rank, trs := range tr.Transitions {
		for i, x := range trs {
			if x.State != trace.Active {
				continue
			}
			end := tr.End
			if i+1 < len(trs) {
				end = trs[i+1].Time
			}
			emit(chromeEvent{
				Name: "active", Cat: "activity", Phase: "X",
				TS: usec(x.Time), Dur: usec(end) - usec(x.Time), PID: 0, TID: rank,
			})
		}
	}

	// Work-discovery sessions as slices with their steal statistics.
	for rank, ss := range tr.Sessions {
		for _, s := range ss {
			emit(chromeEvent{
				Name: "steal-search", Cat: "session", Phase: "X",
				TS: usec(s.Start), Dur: usec(s.End) - usec(s.Start), PID: 0, TID: rank,
				Args: map[string]any{
					"attempts": s.Attempts, "failed": s.Failed, "success": s.Success,
				},
			})
		}
	}

	// Protocol events as thread-scoped instants.
	for rank, es := range tr.Events {
		for _, e := range es {
			emit(chromeEvent{
				Name: e.Kind.String(), Cat: "protocol", Phase: "i", Scope: "t",
				TS: usec(e.Time), PID: 0, TID: rank,
				Args: map[string]any{"peer": e.Peer, "arg": e.Arg},
			})
		}
	}

	// Flow arrows for steal transactions: Perfetto draws an arrow from
	// the request send on the thief to its resolution. Successful and
	// refused steals get separately named arrows so the failed-steal
	// floods of the paper's Figure 7 are visible as a distinct pattern;
	// aborted steals never resolve, so they stay arrow-less instants.
	if opts.Pairs == nil {
		opts.Pairs = PairSteals(tr)
	}
	for id, p := range opts.Pairs {
		var name string
		switch p.Outcome {
		case StealSuccess:
			name = "steal"
		case StealRefused:
			name = "steal-refused"
		default:
			continue
		}
		emit(chromeEvent{
			Name: name, Cat: "flow", Phase: "s",
			TS: usec(p.Send), PID: 0, TID: p.Thief, ID: id + 1,
		})
		emit(chromeEvent{
			Name: name, Cat: "flow", Phase: "f", BP: "e",
			TS: usec(p.End), PID: 0, TID: p.Thief, ID: id + 1,
			Args: map[string]any{"victim": p.Victim, "nodes": p.Nodes},
		})
	}

	// Occupancy counter track: the number of active ranks at each
	// transition timestamp — the paper's occupancy curve as a Perfetto
	// "C" track, O(transitions) events.
	emitOccupancy(tr, emit)

	// Highlight track: derived spans (the critical path) on their own
	// process so they sit visually apart from the rank timelines.
	if len(opts.Highlight) > 0 {
		emit(chromeEvent{
			Name: "process_name", Phase: "M", PID: 1,
			Args: map[string]any{"name": "critical path"},
		})
		for _, h := range opts.Highlight {
			emit(chromeEvent{
				Name: h.Name, Cat: "critical", Phase: "X",
				TS: usec(h.Start), Dur: usec(h.End) - usec(h.Start), PID: 1, TID: 0,
				Args: map[string]any{"rank": h.Rank},
			})
		}
	}

	// Parallel-kernel track: the sharded run's window structure, with
	// serialized windows highlighted by cause and per-shard lanes for
	// the barrier-merged traffic.
	if len(opts.ParWindows) > 0 {
		emitParWindows(opts.ParWindows, emit)
	}

	if err != nil {
		return err
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// emitParWindows renders the parallel-kernel process (PID 2): TID 0 is
// the windows lane — one slice per window, serialized ones named by
// their cause — and TID 1+s is shard s's lane, carrying a slice per
// window in which the opening barrier merged messages into that shard.
func emitParWindows(spans []ParWindowSpan, emit func(chromeEvent)) {
	emit(chromeEvent{
		Name: "process_name", Phase: "M", PID: 2,
		Args: map[string]any{"name": "parallel kernel"},
	})
	emit(chromeEvent{
		Name: "thread_name", Phase: "M", PID: 2, TID: 0,
		Args: map[string]any{"name": "windows"},
	})
	shards := 0
	for _, s := range spans {
		if len(s.MergedByShard) > shards {
			shards = len(s.MergedByShard)
		}
	}
	for s := 0; s < shards; s++ {
		emit(chromeEvent{
			Name: "thread_name", Phase: "M", PID: 2, TID: 1 + s,
			Args: map[string]any{"name": fmt.Sprintf("shard %03d", s)},
		})
	}
	for _, w := range spans {
		name, cat := "parallel", "window"
		if w.Serialized {
			name, cat = w.Cause, "window-serialized"
		}
		emit(chromeEvent{
			Name: name, Cat: cat, Phase: "X",
			TS: usec(w.Start), Dur: usec(w.End) - usec(w.Start), PID: 2, TID: 0,
		})
		for s, n := range w.MergedByShard {
			if n == 0 {
				continue
			}
			emit(chromeEvent{
				Name: "merged", Cat: "window", Phase: "X",
				TS: usec(w.Start), Dur: usec(w.End) - usec(w.Start), PID: 2, TID: 1 + s,
				Args: map[string]any{"messages": n},
			})
		}
	}
}

// emitOccupancy emits the workers(t) curve as counter events: one
// sample per instant at which some rank changed phase.
func emitOccupancy(tr *trace.Trace, emit func(chromeEvent)) {
	times, active := Occupancy(tr).Steps()
	if active[0] == 0 {
		// The curve's origin, not a transition: a rank can only become
		// active at time zero, so a real step there counts someone.
		times, active = times[1:], active[1:]
	}
	if len(times) == 0 {
		return
	}
	// Close the curve at trace end so the last step has width.
	if last := len(times) - 1; times[last] < tr.End {
		times, active = append(times, tr.End), append(active, active[last])
	}
	for i, t := range times {
		emit(chromeEvent{
			Name: "occupancy", Cat: "activity", Phase: "C",
			TS: usec(t), PID: 0, TID: 0,
			Args: map[string]any{"active": active[i]},
		})
	}
}

// rankLabel zero-pads so Perfetto's lexicographic thread sort matches
// rank order.
func rankLabel(rank int) string {
	return fmt.Sprintf("rank %06d", rank)
}
