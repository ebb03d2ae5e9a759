package main

import (
	"fmt"
	"io"
	"os"

	"distws/internal/obs"
	"distws/internal/obs/causal"
	"distws/internal/obs/diff"
	"distws/internal/obs/ledger"
	"distws/internal/sim"
	"distws/internal/trace"
)

// renderOpts selects the sections of the text report.
type renderOpts struct {
	steps, heat, width, rows       int
	life, blame, critical, lineage bool
}

// analyzeTraces is -in: each trace's report, framed by its path when
// there are several; with -chrome the one trace is converted as well.
func analyzeTraces(stdout, stderr io.Writer, ins []string, chrome string, o renderOpts) error {
	for _, path := range ins {
		tr, err := readTrace(path)
		if err != nil {
			return err
		}
		a := causal.Analyze(tr)
		if chrome != "" {
			if err := writeFile(chrome, func(w io.Writer) error { return obs.WriteChromeTraceOpts(w, tr, chromeOptions(a)) }); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "chrome trace written to %s (load at ui.perfetto.dev)\n", chrome)
		}
		if len(ins) > 1 {
			fmt.Fprintf(stdout, "==> %s <==\n", path)
		}
		if err := render(stdout, a, o); err != nil {
			return err
		}
		if len(ins) > 1 {
			fmt.Fprintln(stdout)
		}
	}
	return nil
}

// diffManifests is -diff: the causal attribution report between two
// run manifests (DESIGN.md §12), each validated as it is read.
func diffManifests(stdout io.Writer, pathA, pathB string) error {
	a, err := ledger.ReadFile(pathA)
	if err != nil {
		return err
	}
	b, err := ledger.ReadFile(pathB)
	if err != nil {
		return err
	}
	d := diff.Compute(a, b)
	if err := d.CheckIdentities(); err != nil {
		return err
	}
	return d.WriteText(stdout)
}

// readTrace parses one JSONL trace and holds it to trace.Validate.
func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("%s: trace fails validation: %w", path, err)
	}
	return tr, nil
}

// chromeOptions hands the exporter what the analysis already holds: the
// steal pairs for the flow arrows and, for traces with an event log, the
// critical path as a highlight track.
func chromeOptions(a *causal.Analysis) obs.ChromeOptions {
	return obs.ChromeOptions{Highlight: a.Highlights(), Pairs: a.Pairs()}
}

// render writes the human-readable analysis for one trace. Its output
// is a pure function of the trace and options — a golden test pins it
// byte for byte.
func render(w io.Writer, a *causal.Analysis, o renderOpts) error {
	tr, curve := a.Trace(), a.Occupancy()
	fmt.Fprintf(w, "trace: %d ranks, makespan %v, %d sessions\n",
		tr.Ranks(), sim.Duration(tr.End), tr.TotalSessions())
	fmt.Fprintf(w, "occupancy: max %.1f%% (Wmax %d), mean %.1f%%\n",
		curve.MaxOccupancy()*100, curve.Wmax(), curve.MeanOccupancy()*100)

	if st := a.Sessions(); st.Count > 0 {
		fmt.Fprintf(w, "work-discovery sessions: %d, mean %.3gs, p50 %.3gs, p99 %.3gs, %d failed attempts\n",
			st.Count, st.Mean, st.P50, st.P99, st.Failed)
	}

	fmt.Fprintf(w, "\noccupancy   SL (%% runtime)   EL (%% runtime)\n")
	for _, p := range curve.LatencyCurve(obs.OccupancySamples(o.steps, curve.MaxOccupancy())) {
		if !p.Reached {
			fmt.Fprintf(w, "   %3.0f%%        (never reached)\n", p.Occupancy*100)
			continue
		}
		fmt.Fprintf(w, "   %3.0f%%        %6.2f           %6.2f\n", p.Occupancy*100, p.SL*100, p.EL*100)
	}

	if a.HasEvents() {
		fmt.Fprintf(w, "\nprotocol events: %d recorded, %d dropped from bounded rings\n",
			tr.TotalEvents(), tr.TotalEventsDropped())
		for k, n := range tr.EventCounts() {
			if n > 0 {
				fmt.Fprintf(w, "  %-14s %d\n", trace.EventKind(k).String(), n)
			}
		}

		if sl := a.Steals(); sl.Count > 0 {
			fmt.Fprintf(w, "\nsteal round trips: %d (%d ok, %d refused, %d aborted), %d nodes moved\n",
				sl.Count, sl.Success, sl.Refused, sl.Aborted, sl.NodesMoved)
			fmt.Fprintf(w, "steal latency: mean %v, p50 %v, p95 %v, p99 %v, max %v (successful p50 %v)\n",
				sl.Mean, sl.P50, sl.P95, sl.P99, sl.Max, sl.SuccessP50)
		}

		if o.heat > 0 {
			fmt.Fprintln(w)
			fmt.Fprint(w, a.Heatmap(o.heat))
		}

		tail := a.Tail()
		fmt.Fprintf(w, "\ntermination tail: last work transfer at %v, tail %v (%.1f%% of makespan)\n",
			sim.Duration(tail.LastTransfer), tail.Duration, tail.Fraction*100)
		fmt.Fprintf(w, "  failed steals in tail: %d; token hops: %d in tail / %d total\n",
			tail.FailedInTail, tail.TokenHopsInTail, tail.TokenHopsTotal)
	}

	if o.blame {
		fmt.Fprintln(w)
		if err := causal.WriteBlameText(w, a.Blame()); err != nil {
			return err
		}
	}
	if o.critical {
		fmt.Fprintln(w)
		if err := causal.WriteCriticalText(w, a.Path()); err != nil {
			return err
		}
	}
	if o.lineage {
		fmt.Fprintln(w)
		if err := causal.WriteLineageText(w, a.Graph()); err != nil {
			return err
		}
	}

	if o.life {
		fmt.Fprintln(w)
		fmt.Fprint(w, obs.Lifestory(tr, o.width, o.rows))
	}
	return nil
}
