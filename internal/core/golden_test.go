package core

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"distws/internal/obs"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

// goldenFig9Config is a mid-size Figure 9 run: distance-skewed (Tofu)
// victim selection under 1/N placement, the configuration the paper's
// headline result is built from. It is large enough to exercise every
// hot path the performance work touches (steal traffic, token rounds,
// backoff, work transfers) while staying fast enough for CI.
func goldenFig9Config() Config {
	return Config{
		Tree:          uts.MustPreset("H-TINY").Params,
		Ranks:         128,
		Placement:     topology.OnePerNode,
		Selector:      victim.NewDistanceSkewed,
		Steal:         StealOne,
		Seed:          9,
		CollectTrace:  true,
		CollectEvents: true,
	}
}

// goldenDump renders a run's externally visible outputs — the Result
// fields the experiment tables print and the full exported metrics —
// in a canonical text form. Any behavioural drift in the simulation
// substrate shows up as a byte diff here. The [prometheus] section
// ends with the per-link message counts in the registry's exposition
// format, taken from the event log of a twin run (recordAll).
func goldenDump(t *testing.T, cfg Config, res *Result) []byte {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "[result]\n")
	fmt.Fprintf(&b, "ranks %d placement %v selector %s steal %v detector %s\n",
		res.Ranks, res.Placement, res.Selector, res.Steal, res.Detector)
	fmt.Fprintf(&b, "nodes %d leaves %d maxdepth %d\n", res.Nodes, res.Leaves, res.MaxDepth)
	fmt.Fprintf(&b, "makespan %d sequential %d speedup %.9f efficiency %.9f\n",
		int64(res.Makespan), int64(res.SequentialTime), res.Speedup, res.Efficiency)
	fmt.Fprintf(&b, "steals req %d fail %d success %d aborted %d\n",
		res.StealRequests, res.FailedSteals, res.SuccessfulSteals, res.AbortedSteals)
	fmt.Fprintf(&b, "searchtime %d sessions %d meansession %d\n",
		int64(res.MeanSearchTime), res.Sessions, int64(res.MeanSessionDuration))
	fmt.Fprintf(&b, "chunks %d maxnodes %d minnodes %d imbalance %.9f\n",
		res.ChunksTransferred, res.MaxRankNodes, res.MinRankNodes, res.Imbalance)
	fmt.Fprintf(&b, "rounds %d premature %v\n", res.TerminationRounds, res.Premature)
	fmt.Fprintf(&b, "comm sent %v\n", res.Comm.Sent)
	fmt.Fprintf(&b, "comm bytes %v\n", res.Comm.Bytes)
	fmt.Fprintf(&b, "comm received %v\n", res.Comm.Received)
	if res.Trace != nil {
		fmt.Fprintf(&b, "trace events %v dropped %d\n",
			res.Trace.EventCounts(), res.Trace.TotalEventsDropped())
	}
	fmt.Fprintf(&b, "[prometheus]\n")
	if err := cfg.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	writeLinkMessages(&b, obs.Traffic(recordAll(t, cfg).Trace))
	return b.Bytes()
}

// recordAll runs a twin of cfg that records every event and no
// metrics, and fails the test if the event log evicted any. Recording
// does not perturb a run (TestObserverEffect), so the twin's log is a
// full account of what cfg's run sent.
func recordAll(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg.CollectEvents, cfg.EventBuffer, cfg.Metrics = true, 1<<20, nil
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Trace.TotalEventsDropped(); n != 0 {
		t.Fatalf("twin run evicted %d events; raise its EventBuffer", n)
	}
	return res
}

// writeLinkMessages renders a traffic matrix as the counter family
// sim_link_messages: a # TYPE line, then the nonzero cells from-major.
func writeLinkMessages(w io.Writer, m [][]uint64) {
	fmt.Fprintf(w, "# TYPE sim_link_messages counter\n")
	for from, row := range m {
		for to, v := range row {
			if v > 0 {
				fmt.Fprintf(w, "sim_link_messages{from=\"%d\",to=\"%d\"} %d\n", from, to, v)
			}
		}
	}
}

// TestGoldenFig9 extends the observer-effect test into a golden-result
// test: the traced mid-size Fig 9 run must produce byte-identical
// experiment output and exported metrics across every change to the
// simulation substrate. The golden file was generated from the seed
// implementation (container/heap kernel, unpooled messaging, uncached
// latencies); the arena kernel, message pooling, latency cache and
// batched UTS hashing all must reproduce it exactly.
//
// Regenerate (only for a deliberate, documented behaviour change) with:
//
//	go test ./internal/core -run TestGoldenFig9 -update
func TestGoldenFig9(t *testing.T) {
	cfg := goldenFig9Config()
	cfg.Metrics = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenDump(t, cfg, res)

	path := filepath.Join("testdata", "golden_fig9.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden mismatch: simulation output drifted from the seed behaviour\n%s",
			diffHint(want, got))
	}

	// The observer must still not affect the run: a bare (untraced,
	// unmetered) run of the same config reaches the same result.
	bare := goldenFig9Config()
	bare.CollectTrace, bare.CollectEvents = false, false
	bres, err := Run(bare)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Nodes != res.Nodes || bres.Makespan != res.Makespan ||
		bres.StealRequests != res.StealRequests || bres.FailedSteals != res.FailedSteals {
		t.Fatalf("observer effect: bare run diverged (nodes %d vs %d, makespan %d vs %d)",
			bres.Nodes, res.Nodes, bres.Makespan, res.Makespan)
	}
}

// diffHint locates the first differing line for a readable failure.
func diffHint(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first diff at line %d:\nwant: %s\ngot:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line count differs: want %d, got %d", len(wl), len(gl))
}
