package parprof

import (
	"encoding/json"
	"fmt"
	"io"

	"distws/internal/obs"
	"distws/internal/sim"
)

// pct renders part/whole as a percentage ("-" when whole is 0).
func pct(part, whole uint64) string {
	if whole == 0 {
		return "    -"
	}
	return fmt.Sprintf("%4.1f%%", 100*float64(part)/float64(whole))
}

// WriteText renders the ledger as the human-readable window profile.
// The output is a pure function of the ledger — byte-stable,
// golden-testable.
func (l *Ledger) WriteText(w io.Writer) error {
	bw := &obs.ErrWriter{W: w}
	t := l.Totals()
	bw.Printf("parallel-kernel profile: %d shard(s), lookahead %v\n", l.shards, l.lookahead)
	if t.Windows == 0 {
		bw.Printf("  no windows recorded (sequential kernel)\n")
		return bw.Err
	}
	bw.Printf("  windows:    %d (%d parallel, %d serialized = %s)\n",
		t.Windows, t.Windows-t.Serialized, t.Serialized, pct(t.Serialized, t.Windows))
	bw.Printf("  staged:     %d message(s) merged at barriers (cross-shard + deferred same-shard)\n", t.Staged)
	if t.Serialized > 0 {
		bw.Printf("  serialized windows by cause (share of serialized virtual time):\n")
		for c := CauseNone + 1; c < NumCauses; c++ {
			ct := t.ByCause[c]
			if ct.Windows == 0 {
				continue
			}
			bw.Printf("    %-18s %6d window(s)  %12v  %s\n",
				c.String(), ct.Windows, ct.Virtual,
				pct(uint64(ct.Virtual), uint64(t.SerializedTime)))
		}
	}
	return bw.Err
}

// ScalingRow is one shard count's entry in a scaling report.
type ScalingRow struct {
	Shards    int          `json:"shards"`
	Makespan  sim.Duration `json:"makespan_ns"`
	Lookahead sim.Duration `json:"lookahead_ns"`

	Windows    uint64 `json:"windows"`
	Serialized uint64 `json:"serialized"`
	Staged     uint64 `json:"staged"`
	// SerializedShare is serialized/windows in [0,1].
	SerializedShare float64 `json:"serialized_share"`
	// CauseWindows decomposes the serialized windows by cause, in Cause
	// order (index 0, CauseNone, is the parallel window count).
	CauseWindows [NumCauses]uint64 `json:"cause_windows"`

	// WallSeconds is the measured host wall time of the run; 0 when
	// unmeasured. It is the one host-dependent column of the report and
	// is excluded from every determinism comparison.
	WallSeconds float64 `json:"wall_seconds,omitempty"`
}

// RowFrom builds a scaling row from one run's ledger and makespan.
func RowFrom(shards int, makespan sim.Duration, l *Ledger, wallSeconds float64) ScalingRow {
	r := ScalingRow{Shards: shards, Makespan: makespan, WallSeconds: wallSeconds}
	if l != nil {
		t := l.Totals()
		r.Lookahead = l.Lookahead()
		r.Windows = t.Windows
		r.Serialized = t.Serialized
		r.Staged = t.Staged
		r.SerializedShare = l.SerializedShare()
		for c := Cause(0); c < NumCauses; c++ {
			r.CauseWindows[c] = t.ByCause[c].Windows
		}
	}
	return r
}

// Scaling is the shard scaling report: the same configuration run at
// several shard counts, tabulating window-protocol overhead with a
// per-cause decomposition. Virtual columns are deterministic; the wall
// columns (when measured) are host diagnostics.
type Scaling struct {
	Rows []ScalingRow `json:"rows"`
}

// WriteText renders the scaling table. Wall-derived columns print "-"
// when unmeasured, so the deterministic rendering is a pure function
// of the virtual data.
func (s *Scaling) WriteText(w io.Writer) error {
	bw := &obs.ErrWriter{W: w}
	bw.Printf("shard scaling report (virtual columns deterministic; wall columns host-dependent)\n")
	bw.Printf("  %6s %10s %10s %6s %10s %9s %8s %6s\n",
		"shards", "windows", "serial", "ser%", "staged", "wall(s)", "speedup", "eff")
	var base float64
	for _, r := range s.Rows {
		if r.Shards == 1 && r.WallSeconds > 0 {
			base = r.WallSeconds
		}
	}
	for _, r := range s.Rows {
		wall, speedup, eff := "        -", "       -", "     -"
		if r.WallSeconds > 0 {
			wall = fmt.Sprintf("%9.2f", r.WallSeconds)
			if base > 0 {
				sp := base / r.WallSeconds
				speedup = fmt.Sprintf("%8.2f", sp)
				eff = fmt.Sprintf("%6.2f", sp/float64(r.Shards))
			}
		}
		bw.Printf("  %6d %10d %10d %5s %10d %s %s %s\n",
			r.Shards, r.Windows, r.Serialized, pct(r.Serialized, r.Windows),
			r.Staged, wall, speedup, eff)
	}
	bw.Printf("  serialized windows by cause:\n")
	bw.Printf("  %6s", "shards")
	for c := CauseNone + 1; c < NumCauses; c++ {
		bw.Printf(" %18s", c.String())
	}
	bw.Printf("\n")
	for _, r := range s.Rows {
		bw.Printf("  %6d", r.Shards)
		for c := CauseNone + 1; c < NumCauses; c++ {
			bw.Printf(" %18d", r.CauseWindows[c])
		}
		bw.Printf("\n")
	}
	return bw.Err
}

// WriteJSON renders the scaling report as an indented JSON document
// (the `make parprof-smoke` artifact).
func (s *Scaling) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Publish exports the ledger's aggregates into a metrics registry as
// the gated sim_par_* family. Like causal.Publish it runs outside
// core.Run, after the simulation: the engine's own Prometheus
// exposition stays byte-identical whether or not a run was profiled,
// which is what keeps the golden registry dumps and the sharded
// observer-freedom comparisons exact.
func Publish(reg *obs.Registry, l *Ledger) {
	if reg == nil || l == nil {
		return
	}
	t := l.Totals()
	reg.Counter("sim_par_windows_total").Add(t.Windows)
	reg.Counter("sim_par_serialized_total").Add(t.Serialized)
	reg.Counter("sim_par_staged_total").Add(t.Staged)
	reg.Counter("sim_par_parallel_ns_total").Add(uint64(t.Parallel))
	reg.Counter("sim_par_serialized_ns_total").Add(uint64(t.SerializedTime))
	for c := CauseNone + 1; c < NumCauses; c++ {
		if t.ByCause[c].Windows > 0 {
			reg.Counter("sim_par_cause_" + causeSlug(c) + "_windows_total").Add(t.ByCause[c].Windows)
		}
	}
	h := reg.Histogram("sim_par_window_merged")
	for _, w := range l.Windows() {
		h.Observe(int64(w.Merged))
	}
}

// causeSlug converts a cause name to a metric-name-safe suffix.
func causeSlug(c Cause) string {
	out := []byte(c.String())
	for i, b := range out {
		if b == '-' {
			out[i] = '_'
		}
	}
	return string(out)
}

// ChromeWindows converts the ledger into the Chrome exporter's
// parallel-kernel lanes (obs.ChromeOptions.ParWindows): one span per
// window, with the per-shard merged-message decomposition attached so
// the shard lanes show where barrier traffic landed.
func ChromeWindows(l *Ledger) []obs.ParWindowSpan {
	if l == nil || len(l.windows) == 0 {
		return nil
	}
	spans := make([]obs.ParWindowSpan, len(l.windows))
	for i, w := range l.windows {
		sp := obs.ParWindowSpan{Start: w.Start, End: w.End, Serialized: w.Serialized()}
		if w.Serialized() {
			sp.Cause = w.Cause.String()
		}
		if pairs := l.Pairs(i); pairs != nil {
			merged := make([]uint32, l.shards)
			for src := 0; src < l.shards; src++ {
				for dst := 0; dst < l.shards; dst++ {
					merged[dst] += pairs[src*l.shards+dst]
				}
			}
			sp.MergedByShard = merged
		}
		spans[i] = sp
	}
	return spans
}
