package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"distws/internal/core"
	"distws/internal/obs"
	"distws/internal/obs/causal"
	"distws/internal/obs/ledger"
	"distws/internal/uts"
	"distws/internal/victim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

// goldenTrace is a small deterministic traced run: every analysis the
// tool renders is a pure function of it, so the full text report can be
// pinned byte for byte.
func goldenTrace(t *testing.T) *core.Result {
	t.Helper()
	res, err := core.Run(core.Config{
		Tree:          uts.MustPreset("T3").Params,
		Ranks:         8,
		Selector:      victim.NewDistanceSkewed,
		Seed:          7,
		CollectEvents: true,
		EventBuffer:   1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenTextReport pins the deterministic text output — all
// sections enabled — byte for byte. Regenerate after a deliberate
// format change with:
//
//	go test ./cmd/tracetool -run TestGoldenTextReport -update
func TestGoldenTextReport(t *testing.T) {
	res := goldenTrace(t)
	var buf bytes.Buffer
	err := render(&buf, causal.Analyze(res.Trace), renderOpts{
		steps: 5, heat: 8, width: 48, rows: 8,
		life: true, blame: true, critical: true, lineage: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "report.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("text report drifted from %s.\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestJSONReportCoversAllAnalyses checks -format json carries every
// analysis the text mode renders — including the causal sections — and
// that the embedded identities hold.
func TestJSONReportCoversAllAnalyses(t *testing.T) {
	res := goldenTrace(t)
	r := analyze("test.jsonl", causal.Analyze(res.Trace))

	if r.Ranks != 8 || r.MakespanNS != int64(res.Makespan) {
		t.Fatalf("header: %+v", r)
	}
	if r.SessionStats == nil || r.SessionStats.Count != r.Sessions {
		t.Fatalf("session stats missing or inconsistent: %+v", r.SessionStats)
	}
	if len(r.LatencyCurve) == 0 {
		t.Fatal("SL/EL curve missing")
	}
	if r.Steals == nil || r.Tail == nil || len(r.Traffic) != 8 {
		t.Fatal("event analyses missing")
	}
	if r.Blame == nil || len(r.Blame.PerRank) != 8 {
		t.Fatal("blame report missing")
	}
	for rank, b := range r.Blame.PerRank {
		sum := b.BusyNS + b.StartupNS + b.SearchNS + b.InFlightNS + b.TermTailNS
		if sum != r.MakespanNS {
			t.Fatalf("rank %d blame sums to %d, makespan %d", rank, sum, r.MakespanNS)
		}
	}
	if r.Critical == nil {
		t.Fatal("critical path missing")
	}
	critSum := r.Critical.ComputeNS + r.Critical.StealRTTNS + r.Critical.TransferNS +
		r.Critical.TokenNS + r.Critical.WaitNS
	if critSum != r.MakespanNS {
		t.Fatalf("critical path sums to %d, makespan %d", critSum, r.MakespanNS)
	}
	if r.Lineage == nil || r.Lineage.Transfers == 0 || r.Lineage.MaxDepth < 1 {
		t.Fatalf("lineage report missing or empty: %+v", r.Lineage)
	}

	// The encoded report must be deterministic.
	a, err := json.Marshal(analyze("test.jsonl", causal.Analyze(res.Trace)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(analyze("test.jsonl", causal.Analyze(res.Trace)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("JSON report is not deterministic")
	}
}

// TestChromeOptionsHighlightContiguous: the exporter highlight track is
// the critical path, which covers the makespan contiguously.
func TestChromeOptionsHighlightContiguous(t *testing.T) {
	res := goldenTrace(t)
	o := chromeOptions(causal.Analyze(res.Trace))
	if len(o.Highlight) == 0 {
		t.Fatal("no highlight spans for a traced run")
	}
	if o.Highlight[0].Start != 0 {
		t.Fatalf("highlight starts at %v", o.Highlight[0].Start)
	}
	for i := 1; i < len(o.Highlight); i++ {
		if o.Highlight[i].Start != o.Highlight[i-1].End {
			t.Fatalf("highlight gap at span %d", i)
		}
	}
	if last := o.Highlight[len(o.Highlight)-1].End; last != res.Trace.End {
		t.Fatalf("highlight ends at %v, want %v", last, res.Trace.End)
	}
	// Traces without an event log get no highlight track.
	bare := *res.Trace
	bare.Events = nil
	if o := chromeOptions(causal.Analyze(&bare)); len(o.Highlight) != 0 {
		t.Fatal("highlight emitted without an event log")
	}
}

// TestReportSharesManifestSections is "one vocabulary" as an assertion:
// the sections a -format json report and a run manifest both carry
// marshal to the same JSON values.
func TestReportSharesManifestSections(t *testing.T) {
	res := goldenTrace(t)
	r := analyze("test.jsonl", causal.Analyze(res.Trace))
	m := ledger.FromTrace("test", ledger.Spec{}, res.Trace)
	if r.Steals == nil || m.Steals == nil {
		t.Fatal("steal section missing")
	}
	for _, s := range []struct {
		name             string
		report, manifest any
	}{
		{"blame", r.Blame, m.Blame},
		{"critical_path", r.Critical, m.Critical},
		{"traffic", r.Traffic, m.Traffic},
		{"steals", r.Steals.StealSummary, m.Steals},
	} {
		got, err := json.Marshal(s.report)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(s.manifest)
		if err != nil {
			t.Fatal(err)
		}
		if string(want) == "null" || !bytes.Equal(got, want) {
			t.Errorf("%s: report section %s, manifest section %s", s.name, got, want)
		}
	}
}

// TestCheckRejectsUnknownShapes: -check passes one good file of each of
// the four kinds and fails everything it cannot hold to a schema — the
// empty object and the arbitrary array cmd/obscheck used to wave
// through included.
func TestCheckRejectsUnknownShapes(t *testing.T) {
	res := goldenTrace(t)
	a := causal.Analyze(res.Trace)
	dir := t.TempDir()
	write := func(name string, fill func(w *bytes.Buffer)) string {
		t.Helper()
		var buf bytes.Buffer
		fill(&buf)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	manifest := func(corrupt func(*ledger.Manifest)) func(*bytes.Buffer) {
		return func(w *bytes.Buffer) {
			m := ledger.FromTrace("m", ledger.Spec{}, res.Trace)
			corrupt(m)
			data, err := m.Encode()
			must(err)
			w.Write(data)
		}
	}
	good := []string{
		write("t.jsonl", func(w *bytes.Buffer) { must(res.Trace.WriteJSONL(w)) }),
		write("t.chrome.json", func(w *bytes.Buffer) { must(obs.WriteChromeTraceOpts(w, res.Trace, chromeOptions(a))) }),
		write("t.report.json", func(w *bytes.Buffer) { must(json.NewEncoder(w).Encode([]report{analyze("t.jsonl", a)})) }),
		write("t.manifest.json", manifest(func(*ledger.Manifest) {})),
	}
	for _, path := range good {
		if desc, err := check(path); err != nil || desc == "" {
			t.Errorf("check(%s) = %q, %v; want a description", filepath.Base(path), desc, err)
		}
	}
	broken := *res.Trace
	broken.End = -1
	bad := []string{
		write("empty-object.json", func(w *bytes.Buffer) { w.WriteString("{}") }),
		write("empty-array.json", func(w *bytes.Buffer) { w.WriteString("[]") }),
		write("bogus-array.json", func(w *bytes.Buffer) { w.WriteString(`[{"bogus":1}]`) }),
		write("no-ranks.json", func(w *bytes.Buffer) { w.WriteString(`[{"file":"x","ranks":0}]`) }),
		write("no-events.chrome.json", func(w *bytes.Buffer) { w.WriteString(`{"traceEvents":[]}`) }),
		write("blame.manifest.json", manifest(func(m *ledger.Manifest) { m.Blame.PerRank[0].BusyNS++ })),
		write("invalid.jsonl", func(w *bytes.Buffer) { must(broken.WriteJSONL(w)) }),
		write("t.txt", func(w *bytes.Buffer) {}),
		filepath.Join(dir, "absent.json"),
	}
	for _, path := range bad {
		if desc, err := check(path); err == nil {
			t.Errorf("check(%s) passed as %q", filepath.Base(path), desc)
		}
	}
}
