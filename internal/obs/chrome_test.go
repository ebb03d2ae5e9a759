package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"distws/internal/sim"
	"distws/internal/trace"
)

func chromeFixture() *trace.Trace {
	tr := analysisTrace()
	tr.Transitions = [][]trace.Transition{
		{{Time: 0, State: trace.Active}, {Time: 40, State: trace.Idle}, {Time: 70, State: trace.Active}},
		{{Time: 0, State: trace.Active}},
		{{Time: 0, State: trace.Active}, {Time: 50, State: trace.Idle}},
	}
	return tr
}

func TestWriteChromeTraceDefaults(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTraceOpts(&buf, chromeFixture(), ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			ID    int            `json:"id"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
	phases := map[string]int{}
	var threads, actives, flowStarts, flowEnds, refusedStarts, refusedEnds int
	var searches []string
	for _, e := range doc.TraceEvents {
		phases[e.Phase]++
		switch {
		case e.Name == "steal-search":
			searches = append(searches, fmt.Sprintf("%d@%.2f+%.2f %v", e.TID, e.TS, e.Dur, e.Args))
		case e.Name == "thread_name":
			threads++
		case e.Name == "active" && e.Phase == "X":
			actives++
			if e.Dur <= 0 {
				t.Fatalf("active slice with non-positive duration: %+v", e)
			}
		case e.Name == "steal" && e.Phase == "s":
			flowStarts++
		case e.Name == "steal" && e.Phase == "f":
			flowEnds++
			if e.ID == 0 {
				t.Fatal("flow event without id")
			}
		case e.Name == "steal-refused" && e.Phase == "s":
			refusedStarts++
		case e.Name == "steal-refused" && e.Phase == "f":
			refusedEnds++
			if e.ID == 0 {
				t.Fatal("refused flow event without id")
			}
		}
	}
	if threads != 3 {
		t.Fatalf("thread metadata for %d ranks, want 3", threads)
	}
	// Rank 0 has two active slices, ranks 1 and 2 one each.
	if actives != 4 {
		t.Fatalf("active slices = %d, want 4", actives)
	}
	if phases["i"] == 0 {
		t.Fatal("no instant events for the protocol log")
	}
	// The sessions are the idle spans: rank 0's found work, rank 2's
	// runs to the end.
	if want := []string{"0@0.04+0.03 map[success:true]", "2@0.05+0.07 map[success:false]"}; !slices.Equal(searches, want) {
		t.Fatalf("steal-search slices %q, want %q", searches, want)
	}
	// One successful steal → exactly one flow arrow; likewise the one
	// refused steal; the aborted steal never resolves and gets none.
	if flowStarts != 1 || flowEnds != 1 {
		t.Fatalf("flow events: %d starts, %d ends, want 1 each", flowStarts, flowEnds)
	}
	if refusedStarts != 1 || refusedEnds != 1 {
		t.Fatalf("refused flow events: %d starts, %d ends, want 1 each", refusedStarts, refusedEnds)
	}
	// Timestamps are microseconds: the t=10ns steal-send lands at 0.01.
	if !strings.Contains(buf.String(), `"ts":0.01`) {
		t.Fatal("nanosecond→microsecond conversion missing")
	}
}

func TestChromeOccupancyTrack(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTraceOpts(&buf, chromeFixture(), ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	type sample struct {
		ts     float64
		active float64
	}
	var got []sample
	for _, e := range doc.TraceEvents {
		if e.Name != "occupancy" || e.Phase != "C" {
			continue
		}
		got = append(got, sample{ts: e.TS, active: e.Args["active"].(float64)})
	}
	// Transitions: three ranks active at 0 (coalesced into one sample),
	// rank 0 idles at 40, rank 2 at 50, rank 0 resumes at 70, plus the
	// closing sample at the 120ns trace end. Timestamps in usec.
	want := []sample{{0, 3}, {0.04, 2}, {0.05, 1}, {0.07, 2}, {0.12, 2}}
	if len(got) != len(want) {
		t.Fatalf("occupancy samples = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("occupancy sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWriteChromeTraceHighlight(t *testing.T) {
	var buf bytes.Buffer
	opts := ChromeOptions{Highlight: []HighlightSpan{
		{Name: "compute", Rank: 1, Start: 0, End: 40},
		{Name: "transfer", Rank: 2, Start: 40, End: 55},
		{Name: "compute", Rank: 0, Start: 55, End: 120},
	}}
	if err := WriteChromeTraceOpts(&buf, chromeFixture(), opts); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Cat   string         `json:"cat"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var spans, procMeta int
	for _, e := range doc.TraceEvents {
		if e.Cat == "critical" && e.Phase == "X" {
			spans++
			if e.PID != 1 {
				t.Fatalf("highlight span on pid %d, want 1", e.PID)
			}
			if _, ok := e.Args["rank"]; !ok {
				t.Fatalf("highlight span without rank arg: %+v", e)
			}
		}
		if e.Name == "process_name" && e.Phase == "M" && e.PID == 1 {
			procMeta++
		}
	}
	if spans != 3 {
		t.Fatalf("highlight spans = %d, want 3", spans)
	}
	if procMeta != 1 {
		t.Fatalf("highlight process metadata = %d, want 1", procMeta)
	}

	// Without highlights the extra process must not appear.
	buf.Reset()
	if err := WriteChromeTraceOpts(&buf, chromeFixture(), ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "critical path") {
		t.Fatal("highlight process emitted without highlight spans")
	}
}

func TestWriteChromeTraceEventless(t *testing.T) {
	// A trace without an event log still renders activity slices.
	tr := &trace.Trace{
		End:         100,
		Transitions: [][]trace.Transition{{{Time: 0, State: trace.Active}}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceOpts(&buf, tr, ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
}

// TestChromeExporterCoversEveryEventKind feeds the exporter one event
// of every kind the trace vocabulary defines and checks each one comes
// out as a protocol instant under its wire name. The exporter renders
// kinds generically (Kind.String()), so this is the drift gate: a kind
// added to internal/trace whose String maps to "unknown", or a hole in
// the name table, fails here rather than silently mislabeling traces.
func TestChromeExporterCoversEveryEventKind(t *testing.T) {
	tr := &trace.Trace{
		End:         sim.Time(int64(trace.NumEventKinds) * 10),
		Transitions: [][]trace.Transition{{{Time: 0, State: trace.Active}}},
		Events:      make([][]trace.Event, 1),
	}
	for k := trace.EventKind(0); k < trace.NumEventKinds; k++ {
		tr.Events[0] = append(tr.Events[0], trace.Event{
			Time: sim.Time(int64(k) * 10), Kind: k, Peer: -1,
		})
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceOpts(&buf, tr, ChromeOptions{}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Cat   string `json:"cat"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Cat == "protocol" && e.Phase == "i" {
			seen[e.Name] = true
		}
	}
	for k := trace.EventKind(0); k < trace.NumEventKinds; k++ {
		name := k.String()
		if name == "unknown" || name == "" {
			t.Errorf("kind %d has no wire name; extend eventKindNames in internal/trace", k)
			continue
		}
		if !seen[name] {
			t.Errorf("kind %v never appeared as a protocol instant in the exported trace", k)
		}
	}
	if len(seen) != int(trace.NumEventKinds) {
		t.Errorf("exporter emitted %d distinct protocol names, want %d", len(seen), trace.NumEventKinds)
	}
}

// TestChromeFlowPerTransaction: every successful or refused steal
// transaction of the steal scan has exactly one flow start and one
// flow end, under an id no other arrow shares; aborted transactions,
// orphaned sends, late replies and a send open at trace end draw none.
func TestChromeFlowPerTransaction(t *testing.T) {
	active := []trace.Transition{{Time: 0, State: trace.Active}}
	multi := &trace.Trace{
		End:         100,
		Transitions: [][]trace.Transition{active, active, active},
		Events: [][]trace.Event{
			{
				{Time: 10, Kind: trace.EvStealSend, Peer: 1, Arg: 1},
				{Time: 40, Kind: trace.EvStealAbort, Peer: 1, Arg: 1},
				{Time: 41, Kind: trace.EvStealSend, Peer: 1, Arg: 2},
				{Time: 60, Kind: trace.EvWorkLate, Peer: 1, Arg: 12},
				{Time: 90, Kind: trace.EvStealSend, Peer: 2, Arg: 3},
				{Time: 95, Kind: trace.EvNoWorkRecv, Peer: 2, Arg: 3},
			},
			{
				{Time: 5, Kind: trace.EvStealSend, Peer: 2},
				{Time: 7, Kind: trace.EvStealSend, Peer: 2},
				{Time: 20, Kind: trace.EvWorkRecv, Peer: 2, Arg: 3},
				{Time: 30, Kind: trace.EvStealSend, Peer: 0},
				{Time: 31, Kind: trace.EvNoWorkRecv, Peer: 0},
			},
			{
				{Time: 10, Kind: trace.EvStealSend, Peer: 0},
				{Time: 12, Kind: trace.EvWorkRecv, Peer: 0, Arg: 1},
				{Time: 50, Kind: trace.EvStealSend, Peer: 1},
			},
		},
	}
	for name, tr := range map[string]*trace.Trace{"fixture": chromeFixture(), "three thieves": multi} {
		var buf bytes.Buffer
		if err := WriteChromeTraceOpts(&buf, tr, ChromeOptions{}); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name  string  `json:"name"`
				Cat   string  `json:"cat"`
				Phase string  `json:"ph"`
				TS    float64 `json:"ts"`
				TID   int     `json:"tid"`
				ID    int     `json:"id"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		type flow struct {
			name         string
			thief        int
			send, end    float64
			starts, ends int
		}
		byID := map[int]*flow{}
		for _, e := range doc.TraceEvents {
			if e.Cat != "flow" {
				continue
			}
			f := byID[e.ID]
			if f == nil {
				f = &flow{name: e.Name, thief: e.TID}
				byID[e.ID] = f
			}
			if f.name != e.Name || f.thief != e.TID {
				t.Fatalf("%s: flow id %d names %s on rank %d and %s on rank %d", name, e.ID, f.name, f.thief, e.Name, e.TID)
			}
			switch e.Phase {
			case "s":
				f.starts++
				f.send = e.TS
			case "f":
				f.ends++
				f.end = e.TS
			default:
				t.Fatalf("%s: flow event with phase %q", name, e.Phase)
			}
		}
		var want []flow
		for _, p := range stealPairs(tr) {
			switch p.Outcome {
			case StealSuccess:
				want = append(want, flow{"steal", p.Thief, usec(p.Send), usec(p.End), 1, 1})
			case StealRefused:
				want = append(want, flow{"steal-refused", p.Thief, usec(p.Send), usec(p.End), 1, 1})
			}
		}
		if len(byID) != len(want) {
			t.Fatalf("%s: %d flow ids for %d answered transactions", name, len(byID), len(want))
		}
		// Ids count the arrows in (thief, log) order from 1.
		for i, w := range want {
			if f := byID[i+1]; f == nil || *f != w {
				t.Errorf("%s: flow id %d = %+v, want %+v", name, i+1, f, w)
			}
		}
	}
}
