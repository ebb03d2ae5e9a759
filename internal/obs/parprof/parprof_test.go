package parprof

import (
	"testing"

	"distws/internal/sim"
)

// record appends a window at index i of width la with the given cause
// and pair matrix (shards inferred from the ledger).
func record(l *Ledger, i int, la sim.Duration, cause Cause, pairs []uint32) {
	start := sim.Time(int64(i) * int64(la))
	merged := 0
	for _, n := range pairs {
		merged += int(n)
	}
	l.Record(start, start.Add(la), cause, merged, pairs)
}

func TestLedgerAggregates(t *testing.T) {
	const la = 4 * sim.Microsecond
	l := New(2, la)
	record(l, 0, la, CauseNone, nil)
	record(l, 1, la, CauseNone, []uint32{0, 3, 2, 0})
	record(l, 2, la, CauseTokenDue, []uint32{0, 1, 0, 0})
	record(l, 3, la, CauseDetector, nil)
	record(l, 4, la, CauseTokenDue, nil)

	tot := l.Totals()
	if tot.Windows != 5 || tot.Serialized != 3 || tot.Staged != 6 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.Parallel != 2*la || tot.SerializedTime != 3*la {
		t.Fatalf("time split = %v parallel, %v serialized", tot.Parallel, tot.SerializedTime)
	}
	if got := tot.ByCause[CauseTokenDue]; got.Windows != 2 || got.Virtual != 2*la {
		t.Fatalf("token-due totals = %+v", got)
	}
	if got := l.SerializedShare(); got != 0.6 {
		t.Fatalf("SerializedShare = %v, want 0.6", got)
	}
	if err := l.CheckIdentities(); err != nil {
		t.Fatalf("CheckIdentities: %v", err)
	}

	// Per-window pair matrices: only windows with traffic carry one.
	if p := l.Pairs(0); p != nil {
		t.Fatalf("window 0 pairs = %v, want nil", p)
	}
	if p := l.Pairs(1); len(p) != 4 || p[1] != 3 || p[2] != 2 {
		t.Fatalf("window 1 pairs = %v", p)
	}
}

func TestLedgerRecordCopiesPairs(t *testing.T) {
	const la = sim.Microsecond
	l := New(2, la)
	scratch := []uint32{1, 2, 3, 4}
	l.Record(0, sim.Time(la), CauseNone, 10, scratch)
	scratch[0], scratch[3] = 99, 99 // caller reuses its scratch
	if p := l.Pairs(0); p[0] != 1 || p[3] != 4 {
		t.Fatalf("pairs alias caller scratch: %v", p)
	}
}

func TestEmptyAndSequentialLedger(t *testing.T) {
	for _, l := range []*Ledger{New(1, 0), New(4, 2*sim.Microsecond)} {
		if err := l.CheckIdentities(); err != nil {
			t.Fatalf("empty ledger fails identities: %v", err)
		}
		if l.SerializedShare() != 0 {
			t.Fatalf("empty ledger SerializedShare = %v", l.SerializedShare())
		}
	}
}

func TestCheckIdentitiesCatchesTampering(t *testing.T) {
	const la = sim.Microsecond
	fresh := func() *Ledger {
		l := New(2, la)
		record(l, 0, la, CauseNone, []uint32{0, 2, 1, 0})
		record(l, 1, la, CauseTokenDue, nil)
		return l
	}
	for name, tamper := range map[string]func(*Ledger){
		"cause":     func(l *Ledger) { l.windows[1].Cause = CauseDetector },
		"badcause":  func(l *Ledger) { l.windows[1].Cause = NumCauses },
		"width":     func(l *Ledger) { l.windows[0].End += sim.Time(la) },
		"merged":    func(l *Ledger) { l.windows[0].Merged++ },
		"aggregate": func(l *Ledger) { l.totals.Serialized++ },
		"pairsum":   func(l *Ledger) { l.pairArena[1]++ },
	} {
		l := fresh()
		if err := l.CheckIdentities(); err != nil {
			t.Fatalf("%s: fresh ledger fails: %v", name, err)
		}
		tamper(l)
		if err := l.CheckIdentities(); err == nil {
			t.Errorf("%s tampering not caught", name)
		}
	}
}

func TestCauseStrings(t *testing.T) {
	want := map[Cause]string{
		CauseNone:     "parallel",
		CauseDetector: "detector-decision",
		CauseTokenDue: "token-due",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
		if got := c.Serialized(); got != (c != CauseNone) {
			t.Errorf("%v.Serialized() = %v", c, got)
		}
	}
	if got := Cause(200).String(); got != "Cause(200)" {
		t.Errorf("out-of-range cause renders %q", got)
	}
}
