// Package parprof profiles the parallel simulation kernel: a
// deterministic per-window ledger of the conservative time windows a
// sharded run executed (internal/sim/par), with a serialization-cause
// taxonomy threaded out of the sharded engine's window policy.
//
// The ledger is recorded at window barriers via par.Hooks.OnWindow —
// coordinator context, workers quiescent — so recording never races
// with simulation state and never perturbs it: a profiled run is
// byte-identical to an unprofiled one (asserted by the observer-freedom
// tests in internal/core). Everything in the ledger is virtual-time
// data and therefore bit-deterministic for a fixed (Config, Shards).
// Its one reader is the repository benchmark's sharded pass, which
// reports Totals and SerializedShare after CheckIdentities.
package parprof

import (
	"fmt"

	"distws/internal/sim"
)

// Cause classifies why a window was serialized. Exactly one cause is
// recorded per window; CauseNone marks windows that ran parallel. The
// serialized causes are the sharded engine's two triggers
// (internal/core/engine_par.go, DESIGN.md §13) in decision order; a
// verdict outside a serialized window is not a cause but a panic.
type Cause uint8

const (
	// CauseNone: the window ran parallel across all shards.
	CauseNone Cause = iota
	// CauseDetector: the termination detector does not implement
	// term.DecisionAware, so no window can be proven decision-free.
	CauseDetector
	// CauseTokenDue: a termination token is due at the ring initiator
	// inside the window.
	CauseTokenDue

	// NumCauses bounds the enum for dense per-cause arrays.
	NumCauses
)

var causeNames = [NumCauses]string{"parallel", "detector-decision", "token-due"}

func (c Cause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return fmt.Sprintf("Cause(%d)", uint8(c))
}

// Serialized reports whether the cause marks a serialized window.
func (c Cause) Serialized() bool { return c != CauseNone }

// window is one recorded time window.
type window struct {
	// Start and End bound the window [Start, End); the width is always
	// the run's lookahead.
	Start, End sim.Time
	// Cause is the serialization cause (CauseNone = ran parallel).
	Cause Cause
	// Merged counts the staged messages injected at the barrier that
	// opened this window: every cross-shard send, plus same-shard sends
	// due at or after the window end, which route through the merge so
	// barrier order reproduces sequential send-order tie-breaks (the
	// pair matrix diagonal is therefore nonzero by design).
	Merged uint32
	// pairOff indexes the ledger's pair arena (-1 when Merged == 0).
	pairOff int32
}

// CauseTotals aggregates one cause's windows.
type CauseTotals struct {
	// Windows counts windows attributed to the cause.
	Windows uint64
	// Virtual is the summed window width (Windows × lookahead): the
	// virtual-time share the cause governed.
	Virtual sim.Duration
}

// Totals is the ledger's aggregate view.
type Totals struct {
	Windows    uint64
	Serialized uint64
	Staged     uint64
	// Parallel and SerializedTime split the total windowed virtual
	// time (Windows × lookahead) by execution mode.
	Parallel       sim.Duration
	SerializedTime sim.Duration
	// ByCause decomposes the windows by cause; ByCause[CauseNone] is
	// the parallel share, the rest partition the serialized share.
	ByCause [NumCauses]CauseTotals
}

// Ledger is the deterministic window ledger of one sharded run. Record
// is called once per window from the barrier (single-threaded); all
// aggregates are maintained incrementally so Totals is O(1).
type Ledger struct {
	shards    int
	lookahead sim.Duration
	windows   []window
	// pairArena backs the per-window shard-pair matrices: each window
	// with traffic owns a shards² block at its pairOff.
	pairArena []uint32
	totals    Totals
}

// New returns an empty ledger for a run over the given shard count
// and window width.
func New(shards int, lookahead sim.Duration) *Ledger {
	return &Ledger{shards: shards, lookahead: lookahead}
}

// Record appends one window. cause, below NumCauses, is CauseNone when
// the window ran parallel; merged is the staged-message count injected
// at the opening barrier and pairs its src-major shards×shards
// decomposition (nil when merged == 0; the slice is copied, so
// barrier-owned scratch may be passed directly). Steady-state cost
// amortizes to zero allocations (BenchmarkWindowLedger gates it).
func (l *Ledger) Record(start, end sim.Time, cause Cause, merged int, pairs []uint32) {
	w := window{Start: start, End: end, Cause: cause, Merged: uint32(merged), pairOff: -1}
	if merged > 0 && len(pairs) == l.shards*l.shards {
		w.pairOff = int32(len(l.pairArena))
		l.pairArena = append(l.pairArena, pairs...)
	}
	l.windows = append(l.windows, w)

	width := end.Sub(start)
	l.totals.Windows++
	l.totals.Staged += uint64(merged)
	l.totals.ByCause[cause].Windows++
	l.totals.ByCause[cause].Virtual += width
	if cause.Serialized() {
		l.totals.Serialized++
		l.totals.SerializedTime += width
	} else {
		l.totals.Parallel += width
	}
}

// Reset empties the ledger while keeping its capacity, so a caller
// replaying many runs at the same shard count (the window-ledger
// benchmark) can reuse one ledger without reallocating.
func (l *Ledger) Reset() {
	l.windows = l.windows[:0]
	l.pairArena = l.pairArena[:0]
	l.totals = Totals{}
}

// Pairs returns window i's src-major shards×shards staged-message
// matrix, or nil when the opening barrier merged nothing. The slice
// aliases ledger storage; callers must not mutate it.
func (l *Ledger) Pairs(i int) []uint32 {
	w := l.windows[i]
	if w.pairOff < 0 {
		return nil
	}
	n := l.shards * l.shards
	return l.pairArena[w.pairOff : int(w.pairOff)+n]
}

// Totals returns the aggregate view.
func (l *Ledger) Totals() Totals { return l.totals }

// SerializedShare returns the serialized fraction of all windows in
// [0,1] (0 for an empty ledger).
func (l *Ledger) SerializedShare() float64 {
	if l.totals.Windows == 0 {
		return 0
	}
	return float64(l.totals.Serialized) / float64(l.totals.Windows)
}

// CheckIdentities verifies the ledger's internal accounting: every
// window carries exactly one cause and spans exactly one lookahead;
// the per-cause window counts and virtual-time totals partition the
// serialized totals (and, with the parallel bucket, the whole run);
// the staged total equals the per-window merged sum, and each window's
// pair matrix sums to its merged count. The sharded engine's profiling
// tests and the repository benchmark run this on every recorded ledger.
func (l *Ledger) CheckIdentities() error {
	var windows, serialized, staged uint64
	var parallel, serTime sim.Duration
	var byCause [NumCauses]CauseTotals
	for i, w := range l.windows {
		if w.Cause >= NumCauses {
			return fmt.Errorf("parprof: window %d has invalid cause %d", i, w.Cause)
		}
		if w.End.Sub(w.Start) != l.lookahead {
			return fmt.Errorf("parprof: window %d spans %d ns, want lookahead %d ns",
				i, w.End.Sub(w.Start), l.lookahead)
		}
		width := w.End.Sub(w.Start)
		windows++
		staged += uint64(w.Merged)
		byCause[w.Cause].Windows++
		byCause[w.Cause].Virtual += width
		if w.Cause.Serialized() {
			serialized++
			serTime += width
		} else {
			parallel += width
		}
		var pairSum uint64
		for _, n := range l.Pairs(i) {
			pairSum += uint64(n)
		}
		if w.Merged > 0 && pairSum != uint64(w.Merged) {
			return fmt.Errorf("parprof: window %d pairs sum to %d, want merged %d", i, pairSum, w.Merged)
		}
	}
	t := l.totals
	if windows != t.Windows || serialized != t.Serialized || staged != t.Staged ||
		parallel != t.Parallel || serTime != t.SerializedTime || byCause != t.ByCause {
		return fmt.Errorf("parprof: aggregate totals diverge from the recorded windows")
	}
	var causeWindows uint64
	var causeTime sim.Duration
	for c := CauseNone + 1; c < NumCauses; c++ {
		causeWindows += t.ByCause[c].Windows
		causeTime += t.ByCause[c].Virtual
	}
	if causeWindows != t.Serialized {
		return fmt.Errorf("parprof: cause windows sum to %d, want serialized total %d", causeWindows, t.Serialized)
	}
	if causeTime != t.SerializedTime {
		return fmt.Errorf("parprof: cause virtual time sums to %d ns, want serialized total %d ns", causeTime, t.SerializedTime)
	}
	return nil
}
