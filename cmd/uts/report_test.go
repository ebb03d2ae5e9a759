package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"distws/internal/core"
	"distws/internal/obs/causal"
	"distws/internal/uts"
	"distws/internal/victim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

// goldenTrace is a small deterministic traced run: every analysis the
// report renders is a pure function of it, so the full text report can
// be pinned byte for byte.
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
//	go test ./cmd/uts -run TestGoldenTextReport -update
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
