package obs

import (
	"strings"
	"testing"

	"distws/internal/sim"
	"distws/internal/trace"
)

func TestLifestoryRendering(t *testing.T) {
	// Rank 0 active the whole run; rank 1 active the second half;
	// rank 2 never active.
	tr := buildTrace(100, [][][2]sim.Time{
		{{0, 100}},
		{{50, 100}},
		{},
	})
	out := Lifestory(tr, 10, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 3 ranks
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	row0 := lines[1][strings.Index(lines[1], "|")+1:]
	if strings.ContainsAny(row0, ".+") {
		t.Fatalf("always-active rank shows idle buckets: %q", row0)
	}
	row2 := lines[3][strings.Index(lines[3], "|")+1:]
	if strings.Contains(row2, "#") {
		t.Fatalf("never-active rank shows active buckets: %q", row2)
	}
	row1 := lines[2][strings.Index(lines[2], "|")+1:]
	if !strings.HasPrefix(row1, ".....") || !strings.HasSuffix(strings.TrimSuffix(row1, "|"), "#####") {
		t.Fatalf("half-active rank wrong: %q", row1)
	}
}

func TestLifestorySampling(t *testing.T) {
	// 100 ranks but only 10 rows: output must subsample evenly.
	intervals := make([][][2]sim.Time, 100)
	for i := range intervals {
		intervals[i] = [][2]sim.Time{{0, 100}}
	}
	tr := buildTrace(100, intervals)
	out := Lifestory(tr, 20, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 11 {
		t.Fatalf("%d lines for 10 rows", len(lines))
	}
	if !strings.Contains(lines[1], "     0 |") || !strings.Contains(lines[10], "    90 |") {
		t.Fatalf("sampling labels wrong:\n%s", out)
	}
}

func TestLifestoryEmpty(t *testing.T) {
	tr := trace.NewRecorder(0).Finish(0)
	if !strings.Contains(Lifestory(tr, 10, 5), "empty") {
		t.Fatal("empty trace not handled")
	}
}

func TestLifestoryPartialBucket(t *testing.T) {
	// Active only for a small fraction of one bucket: '+' marker.
	tr := buildTrace(1000, [][][2]sim.Time{{{0, 10}}})
	out := Lifestory(tr, 10, 1)
	row := out[strings.Index(out, "|")+1:]
	if row[0] != '+' && row[0] != '#' {
		t.Fatalf("brief activity invisible: %q", row)
	}
	if strings.Count(row[:10], "#")+strings.Count(row[:10], "+") > 1 {
		t.Fatalf("activity bleeds across buckets: %q", row)
	}
}

func TestSessionsStats(t *testing.T) {
	r := trace.NewRecorder(2)
	r.BeginSession(0, 0)
	r.SessionAttempt(0, true)
	r.SessionAttempt(0, true)
	r.EndSession(0, 10_000, true) // 10µs
	r.BeginSession(1, 0)
	r.SessionAttempt(1, false)
	r.EndSession(1, 30_000, true) // 30µs
	tr := r.Finish(100_000)
	st := Sessions(tr)
	if st.Count != 2 || st.Failed != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Mean < 19e-6 || st.Mean > 21e-6 {
		t.Fatalf("mean %v, want ~20µs", st.Mean)
	}
	if st.P99 < st.P50 {
		t.Fatal("quantiles inverted")
	}
	empty := Sessions(trace.NewRecorder(1).Finish(10))
	if empty.Count != 0 || empty.Mean != 0 {
		t.Fatalf("empty stats %+v", empty)
	}
}
