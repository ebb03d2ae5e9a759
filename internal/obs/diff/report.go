package diff

import (
	"encoding/json"
	"fmt"
	"io"

	"distws/internal/obs"
	"distws/internal/sim"
)

// dur renders a ns scalar as a virtual duration.
func dur(ns int64) string { return sim.Duration(ns).String() }

// sdur renders a delta with an explicit sign.
func sdur(ns int64) string {
	if ns >= 0 {
		return "+" + sim.Duration(ns).String()
	}
	return sim.Duration(ns).String()
}

// share renders part as a percentage of whole ("-" when whole is 0, so
// a zero-delta diff still renders stably).
func share(part, whole int64) string {
	if whole == 0 {
		return "     -"
	}
	return fmt.Sprintf("%5.1f%%", 100*float64(part)/float64(whole))
}

// Headline is the one-sentence summary: which run is slower, by how
// much, and what the largest contributors were.
func (d *Delta) Headline() string {
	switch {
	case d.Makespan.Delta == 0:
		return fmt.Sprintf("runs are makespan-identical at %s", dur(d.Makespan.A))
	case d.Makespan.Delta > 0:
		return fmt.Sprintf("run B is %.1f%% slower: makespan %s -> %s (%s)%s",
			d.MakespanPct, dur(d.Makespan.A), dur(d.Makespan.B), sdur(d.Makespan.Delta), d.topContributors())
	default:
		return fmt.Sprintf("run B is %.1f%% faster: makespan %s -> %s (%s)%s",
			-d.MakespanPct, dur(d.Makespan.A), dur(d.Makespan.B), sdur(d.Makespan.Delta), d.topContributors())
	}
}

// topContributors names up to two critical-path segments whose deltas
// move in the makespan delta's direction, largest first.
func (d *Delta) topContributors() string {
	if d.Critical == nil {
		return ""
	}
	sign := int64(1)
	if d.Makespan.Delta < 0 {
		sign = -1
	}
	type contrib struct {
		name string
		ns   int64
	}
	var cs []contrib
	for k, s := range d.Critical.Segments {
		if sign*s.Delta > 0 {
			cs = append(cs, contrib{SegmentNames[k], sign * s.Delta})
		}
	}
	// Stable selection of the two largest (ties keep segment order).
	for i := 0; i < len(cs) && i < 2; i++ {
		best := i
		for j := i + 1; j < len(cs); j++ {
			if cs[j].ns > cs[best].ns {
				best = j
			}
		}
		cs[i], cs[best] = cs[best], cs[i]
	}
	if len(cs) == 0 {
		return ""
	}
	out := ": "
	for i := 0; i < len(cs) && i < 2; i++ {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s %s of critical path", cs[i].name, sdur(sign*cs[i].ns))
	}
	return out
}

// WriteText renders the full attribution report. The output is a pure
// function of the delta — byte-stable across runs, golden-testable.
func (d *Delta) WriteText(w io.Writer) error {
	bw := &obs.ErrWriter{W: w}
	bw.Printf("run diff: A=%s vs B=%s\n", label(d.IDA), label(d.IDB))
	if d.SameSpec {
		bw.Printf("spec: identical configurations (code/version comparison)\n")
	} else if len(d.SpecChanges) > 0 {
		bw.Printf("spec: configs differ in %d field(s)\n", len(d.SpecChanges))
		for _, c := range d.SpecChanges {
			bw.Printf("  %s\n", c)
		}
	}
	bw.Printf("\n%s\n", d.Headline())

	if d.Critical != nil {
		bw.Printf("\ncritical path (per-segment deltas sum exactly to the makespan delta):\n")
		bw.Printf("  %-10s %14s %14s %14s %13s\n", "segment", "A", "B", "delta", "of Δmakespan")
		for k, s := range d.Critical.Segments {
			bw.Printf("  %-10s %14s %14s %14s %13s\n",
				SegmentNames[k], dur(s.A), dur(s.B), sdur(s.Delta), share(s.Delta, d.Makespan.Delta))
		}
		bw.Printf("  %-10s %14s %14s %14s %13s\n",
			"total", dur(d.Makespan.A), dur(d.Makespan.B), sdur(d.Makespan.Delta),
			share(d.Critical.Sum(), d.Makespan.Delta))
	}

	if d.Blame != nil {
		bw.Printf("\nidle-time blame (aggregate rank-time; deltas sum to ranks x makespan delta):\n")
		bw.Printf("  %-10s %14s %14s %14s\n", "cause", "A", "B", "delta")
		for k, c := range d.Blame.Causes {
			bw.Printf("  %-10s %14s %14s %14s\n", CauseNames[k], dur(c.A), dur(c.B), sdur(c.Delta))
		}
	}

	if s := d.Steals; s != nil {
		bw.Printf("\nsteals: requests %d -> %d (%+d), success rate %.1f%% -> %.1f%% (%+.1fpp)\n",
			s.Requests.A, s.Requests.B, s.Requests.Delta,
			100*s.SuccessRateA, 100*s.SuccessRateB, 100*(s.SuccessRateB-s.SuccessRateA))
		bw.Printf("  failed %d -> %d (%+d), aborted %d -> %d (%+d)\n",
			s.Failed.A, s.Failed.B, s.Failed.Delta, s.Aborted.A, s.Aborted.B, s.Aborted.Delta)
		if s.P50NS != nil && s.P95NS != nil && s.P99NS != nil {
			bw.Printf("  latency p50 %s -> %s (%s), p95 %s -> %s (%s), p99 %s -> %s (%s)\n",
				dur(s.P50NS.A), dur(s.P50NS.B), sdur(s.P50NS.Delta),
				dur(s.P95NS.A), dur(s.P95NS.B), sdur(s.P95NS.Delta),
				dur(s.P99NS.A), dur(s.P99NS.B), sdur(s.P99NS.Delta))
		}
	}

	if len(d.TopLinks) > 0 {
		bw.Printf("\ntop link movers (messages):\n")
		for _, l := range d.TopLinks {
			bw.Printf("  %4d -> %-4d %8d -> %-8d (%+d)\n", l.From, l.To, l.A, l.B, l.Delta)
		}
	} else if d.PerRank != nil {
		bw.Printf("\ntraffic: identical on every link\n")
	}
	return bw.Err
}

// WriteJSON renders the delta as an indented JSON document.
func (d *Delta) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

func label(id string) string {
	if id == "" {
		return "(unnamed)"
	}
	return id
}
