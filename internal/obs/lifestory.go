package obs

import (
	"fmt"
	"sort"
	"strings"

	"distws/internal/sim"
	"distws/internal/trace"
)

// Lifestory renders per-rank activity bars over time — the "lifestory"
// graphic of Saraswat et al. that the paper's §VI relates its traces
// to. Each row is one rank; '#' marks active time, '.' idle time,
// sampled into width buckets over [0, trace.End]. When the trace has
// more ranks than maxRows, evenly spaced ranks are shown.
func Lifestory(tr *trace.Trace, width, maxRows int) string {
	if width < 8 {
		width = 8
	}
	if maxRows < 1 {
		maxRows = 1
	}
	n := tr.Ranks()
	if n == 0 || tr.End == 0 {
		return "(empty trace)\n"
	}
	rows := n
	if rows > maxRows {
		rows = maxRows
	}
	var b strings.Builder
	fmt.Fprintf(&b, "lifestories: %d of %d ranks, %v makespan, '#'=active\n", rows, n, sim.Duration(tr.End))
	for i := 0; i < rows; i++ {
		rank := i * n / rows
		b.WriteString(fmt.Sprintf("%6d |", rank))
		b.WriteString(lifestoryRow(tr, rank, width))
		b.WriteString("|\n")
	}
	return b.String()
}

// lifestoryRow renders one rank's activity into width buckets: a bucket
// is '#' when the rank was active for at least half of it, '+' when
// active for some of it, '.' otherwise.
func lifestoryRow(tr *trace.Trace, rank, width int) string {
	row := make([]byte, width)
	bucket := float64(tr.End) / float64(width)
	transitions := tr.Transitions[rank]
	for i := range row {
		lo := sim.Time(float64(i) * bucket)
		hi := sim.Time(float64(i+1) * bucket)
		if hi > tr.End {
			hi = tr.End
		}
		active := activeWithin(transitions, lo, hi, tr.End)
		span := hi.Sub(lo)
		switch {
		case span > 0 && float64(active) >= 0.5*float64(span):
			row[i] = '#'
		case active > 0:
			row[i] = '+'
		default:
			row[i] = '.'
		}
	}
	return string(row)
}

// activeWithin returns the active time of a rank inside [lo, hi).
func activeWithin(transitions []trace.Transition, lo, hi, end sim.Time) sim.Duration {
	var total sim.Duration
	for i, t := range transitions {
		if t.State != trace.Active {
			continue
		}
		start := t.Time
		stop := end
		if i+1 < len(transitions) {
			stop = transitions[i+1].Time
		}
		if start < lo {
			start = lo
		}
		if stop > hi {
			stop = hi
		}
		if stop > start {
			total += stop.Sub(start)
		}
	}
	return total
}

// SessionStats summarizes the work-discovery sessions of a trace:
// count, mean, and selected quantiles of session duration in seconds.
// The JSON form is tracetool -format json's session_stats section.
type SessionStats struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean_s"`
	P50   float64 `json:"p50_s"`
	P99   float64 `json:"p99_s"`
	// Failed is the total failed steal attempts across sessions.
	Failed int `json:"failed_attempts"`
}

// Sessions computes SessionStats over all ranks of a trace.
func Sessions(tr *trace.Trace) SessionStats {
	var durations []float64
	st := SessionStats{}
	for _, ss := range tr.Sessions {
		for _, s := range ss {
			durations = append(durations, s.Duration().Seconds())
			st.Failed += s.Failed
		}
	}
	st.Count = len(durations)
	if st.Count == 0 {
		return st
	}
	sort.Float64s(durations)
	var sum float64
	for _, d := range durations {
		sum += d
	}
	st.Mean = sum / float64(st.Count)
	st.P50 = durations[st.Count/2]
	st.P99 = durations[st.Count*99/100]
	return st
}
