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

// ChromeOptions selects the optional tracks of WriteChromeTraceOpts.
type ChromeOptions struct {
	// Highlight, when non-empty, adds a "critical path" process whose
	// single thread carries the given spans as slices.
	Highlight []HighlightSpan
}

// WriteChromeTraceOpts renders tr as Chrome trace-event JSON: one
// thread per rank, complete ("X") slices for active phases and
// work-discovery sessions, instant events for the protocol log, flow
// arrows for steal transactions, an occupancy counter track, and the
// optional tracks opts selects (none when zero). Load the file at
// ui.perfetto.dev (or chrome://tracing) to scrub through the run.
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

	// Work-discovery sessions as slices, marked by whether they found
	// work.
	for rank := range tr.Transitions {
		EachSession(tr, rank, func(start, end sim.Time, success bool) {
			emit(chromeEvent{
				Name: "steal-search", Cat: "session", Phase: "X",
				TS: usec(start), Dur: usec(end) - usec(start), PID: 0, TID: rank,
				Args: map[string]any{"success": success},
			})
		})
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

	// Flow arrows for steal transactions, thief by thief from the steal
	// scan: Perfetto draws an arrow from the request send on the thief
	// to its resolution. Successful and refused steals get separately
	// named arrows so the failed-steal floods of the paper's Figure 7
	// are visible as a distinct pattern; aborted steals never resolve,
	// so they stay arrow-less instants.
	flows := 0 // the last flow id
	for rank := range tr.Events {
		scan := ScanSteals(tr, rank)
		for p, ok := scan.Next(); ok; p, ok = scan.Next() {
			var name string
			switch p.Outcome {
			case StealSuccess:
				name = "steal"
			case StealRefused:
				name = "steal-refused"
			default:
				continue
			}
			flows++
			emit(chromeEvent{
				Name: name, Cat: "flow", Phase: "s",
				TS: usec(p.Send), PID: 0, TID: p.Thief, ID: flows,
			})
			emit(chromeEvent{
				Name: name, Cat: "flow", Phase: "f", BP: "e",
				TS: usec(p.End), PID: 0, TID: p.Thief, ID: flows,
				Args: map[string]any{"victim": p.Victim, "nodes": p.Nodes},
			})
		}
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

	if err != nil {
		return err
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
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
