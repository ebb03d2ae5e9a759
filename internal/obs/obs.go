// Package obs is the observability layer of the discrete-event
// simulator (internal/core).
//
// It has two parts:
//
//   - the run's one Recorder. At the activity level it keeps each
//     rank's active/idle transitions and the work-discovery sessions
//     it folds out of the engine's phase marks and protocol events;
//     at the events level it also logs every protocol event (steal
//     request/reply sends and deliveries, chunk-transfer sizes,
//     termination-token hops, quantum boundaries) into bounded
//     per-rank logs of delta-varint records, about 6 bytes an event,
//     which keep each rank's newest events and are decoded once, into
//     trace.Event, when Finish hands the trace over. What a recording
//     writes into — the log pages and the per-rank activity scratch —
//     outlives the run: Finish copies the trace out of it and empties
//     the recorder, Reset re-arms it for the next run, so a recording
//     that follows a like one allocates only the trace it hands over.
//     A nil *Recorder records nothing — every method is a nil-safe
//     no-op, cheap enough that instrumented hot paths need no
//     branching (bench_test.go's BenchmarkObservability shows the
//     disabled path within noise of no instrumentation);
//
//   - the Chrome trace-event JSON exporter (opens in Perfetto or
//     chrome://tracing) and the trace analyses (occupancy and SL/EL,
//     steal-latency percentiles, rank×rank traffic matrix,
//     termination-tail breakdown) that causal.Analysis memoizes and
//     cmd/uts reports.
//
// A run's figures are its core.Result and its trace; there is no
// metrics registry. This package never reads the host clock (the
// walltime analyzer enforces it).
package obs

import (
	"unsafe"

	"distws/internal/sim"
	"distws/internal/trace"
)

// DefaultRingCap is the default per-rank event log capacity (events,
// not bytes). A log keeps its rank's newest DefaultRingCap events and
// counts the evicted ones. A record is at most 26 bytes, so a full log
// is at most 219 KiB of 1 KiB pages; at the 5.9 bytes an event averages
// in a 1024-rank steal log it is about 50 KiB (DESIGN.md §9).
const DefaultRingCap = 1 << 13

// Recorder accumulates a run's trace: the activity trace, and at the
// events level the protocol event logs (log.go). It owns what it
// records into and keeps it from one recording to the next (Reset).
// Each rank's state has a single writer — the sharded
// engine records from parallel windows, every rank from the shard that
// owns it — so ranks share no storage; beyond that the recorder is not
// safe for concurrent use. A rank's calls come at non-negative,
// non-decreasing times.
type Recorder struct {
	// kinds has bit k set when Record acts on kind k: every kind at
	// the events level, the fold's kinds at the activity level.
	kinds uint64
	cap   int
	// logs and act hold the run's n ranks, logs none at the activity
	// level. Past their length, up to their capacity, are the empty
	// logs and scratch of larger earlier recordings, pages and capacity
	// kept.
	logs []eventLog
	act  []rankActivity
}

// rankActivity is one rank's activity state: its transitions and
// closed sessions, whose capacity the recorder keeps for the next run,
// and its open session, open when its End is negative.
type rankActivity struct {
	transitions []trace.Transition
	sessions    []trace.Session
	open        trace.Session
}

// NewRecorder returns an events-level recorder for n ranks with the
// given per-rank log capacity in events (0 means DefaultRingCap).
func NewRecorder(n, capPerRank int) *Recorder {
	return new(Recorder).Reset(n, capPerRank, true)
}

// Reset re-arms r in place for a recording of n ranks and returns it:
// at the events level, with the given per-rank log capacity in events
// (0 means DefaultRingCap), when events is set, else at the activity
// level. Whatever r still holds of an unfinished recording is dropped.
// The logs keep the pages earlier recordings allocated and allocate
// more only as a rank outgrows them, so a large-rank run only pays for
// ranks that actually log events, and a recording that follows a like
// one allocates only the trace Finish hands over.
func (r *Recorder) Reset(n, capPerRank int, events bool) *Recorder {
	r.empty()
	r.act = resize(r.act, n)
	if !events {
		r.kinds, r.cap, r.logs = foldKinds, 0, r.logs[:0]
		return r
	}
	if capPerRank <= 0 {
		capPerRank = DefaultRingCap
	}
	r.kinds, r.cap, r.logs = ^uint64(0), capPerRank, resize(r.logs, n)
	return r
}

// resize returns s at length n; past its old length it has the
// elements its capacity kept, and new zero ones beyond that.
func resize[T any](s []T, n int) []T {
	if n > cap(s) {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// empty rewinds every log to spare pages with no eviction count, cuts
// every scratch slice to length 0 with its capacity kept and drops
// every open session, so r pins no trace.
func (r *Recorder) empty() {
	for i := range r.logs {
		r.logs[i].rewind()
		r.logs[i].dropped = 0
	}
	for i := range r.act {
		a := &r.act[i]
		a.transitions, a.sessions, a.open = a.transitions[:0], a.sessions[:0], trace.Session{}
	}
}

// Bytes is the storage r keeps for later recordings: its per-rank
// headers, log pages and activity scratch.
func (r *Recorder) Bytes() int {
	b := cap(r.logs)*int(unsafe.Sizeof(eventLog{})) + cap(r.act)*int(unsafe.Sizeof(rankActivity{}))
	for _, l := range r.logs[:cap(r.logs)] {
		b += l.pages * int(unsafe.Sizeof(page{}))
	}
	for _, a := range r.act[:cap(r.act)] {
		b += cap(a.transitions)*int(unsafe.Sizeof(trace.Transition{})) + cap(a.sessions)*int(unsafe.Sizeof(trace.Session{}))
	}
	return b
}

// foldKinds are the event kinds the session fold reads.
const foldKinds = 1<<trace.EvWorkRecv | 1<<trace.EvWorkLate | 1<<trace.EvNoWorkRecv | 1<<trace.EvStealAbort | 1<<trace.EvCrash

// Mark notes that rank entered phase s at time t; ranks start idle,
// and the phase a rank is in adds no transition. Idle opens a
// work-discovery session unless one is open, Active closes it as a
// success.
func (r *Recorder) Mark(rank int, t sim.Time, s trace.State) {
	if r != nil {
		r.mark(rank, t, s)
	}
}

func (r *Recorder) mark(rank int, t sim.Time, s trace.State) {
	a := &r.act[rank]
	if open := a.open.End < 0; s == trace.Active && open {
		a.close(t, true)
	} else if s == trace.Idle && !open {
		a.open = trace.Session{Start: t, End: -1}
	}
	a.transition(t, s)
}

// Record notes one protocol event of rank at time t; peer is a rank or
// tenant index (or -1). At the events level the event joins rank's
// log, which evicts its oldest at the cap. At both levels the fold
// reads it: in rank's open session, a steal abort or refusal counts a
// failed attempt and work received, late or not, a successful one (a
// working rank banking a late reply has none open); a crash closes the open
// session without success, or marks an active rank idle.
func (r *Recorder) Record(rank int, t sim.Time, kind trace.EventKind, peer int, arg int64) {
	// Inlined at every site: off, or at the activity level with nothing
	// to fold, a record costs a few compares and no call.
	if r != nil && r.kinds>>kind&1 != 0 {
		r.record(rank, t, kind, peer, arg)
	}
}

func (r *Recorder) record(rank int, t sim.Time, kind trace.EventKind, peer int, arg int64) {
	if foldKinds>>kind&1 != 0 {
		switch a := &r.act[rank]; {
		case a.open.End >= 0 && kind == trace.EvCrash:
			a.transition(t, trace.Idle)
		case a.open.End >= 0:
		case kind == trace.EvCrash:
			a.close(t, false)
		default:
			a.open.Attempts++
			if !kind.ReceivesWork() {
				a.open.Failed++
			}
		}
	}
	if len(r.logs) != 0 {
		r.logs[rank].add(trace.Event{Time: t, Arg: arg, Peer: int32(peer), Kind: kind}, r.cap)
	}
}

// Finish ends the recording at end, the run's makespan, and returns
// its trace, nil on a nil receiver: the open sessions close at end, no
// session reaches past end (as one a crash after detection closed
// would), and at the events level the logs are handed over
// (snapshot). The trace shares no memory with the recorder, which is
// left empty, its storage kept: as Reset left it for this run's ranks,
// level and cap.
func (r *Recorder) Finish(end sim.Time) *trace.Trace {
	if r == nil {
		return nil
	}
	for i := range r.act {
		a := &r.act[i]
		if a.open.End < 0 {
			a.close(end, false)
		}
		for j := range a.sessions {
			a.sessions[j].End = min(a.sessions[j].End, end)
		}
	}
	tr := &trace.Trace{
		End:         end,
		Transitions: handOver(r.act, func(a *rankActivity) []trace.Transition { return a.transitions }),
		Sessions:    handOver(r.act, func(a *rankActivity) []trace.Session { return a.sessions }),
	}
	if len(r.logs) != 0 {
		tr.Events, tr.EventsDropped = r.snapshot()
	}
	r.empty()
	return tr
}

// handOver copies each rank's part of act into one array of exactly
// their total and cuts each rank's slice from it with its capacity
// capped at its length, so an append to one rank's slice cannot
// overwrite the next rank's. A rank with an empty part gets nil.
func handOver[T any](act []rankActivity, part func(*rankActivity) []T) [][]T {
	total := 0
	for i := range act {
		total += len(part(&act[i]))
	}
	all := make([]T, total)
	out := make([][]T, len(act))
	lo := 0
	for i := range act {
		if hi := lo + copy(all[lo:], part(&act[i])); hi > lo {
			out[i] = all[lo:hi:hi]
			lo = hi
		}
	}
	return out
}

// close ends the open session at t and keeps it.
func (a *rankActivity) close(t sim.Time, success bool) {
	a.open.End, a.open.Success = t, success
	a.sessions = append(a.sessions, a.open)
}

// transition appends the change to phase s at t, unless the rank is in
// s.
func (a *rankActivity) transition(t sim.Time, s trace.State) {
	tr := a.transitions
	if len(tr) == 0 && s == trace.Idle || len(tr) > 0 && tr[len(tr)-1].State == s {
		return
	}
	a.transitions = append(tr, trace.Transition{Time: t, State: s})
}

// snapshot hands the recorded events over, per rank in recording
// order, together with the per-rank eviction counts. It decodes every
// log once into one array of exactly the retained events; each rank's
// slice is cut from it with its capacity capped at its length, so an
// append to one rank's slice cannot overwrite the next rank's. A rank
// that logged nothing gets nil. The logs are spent afterwards — their
// pages are rewound for the next recording, only the eviction counts
// remain.
func (r *Recorder) snapshot() ([][]trace.Event, []uint64) {
	total := 0
	for i := range r.logs {
		total += r.logs[i].n
	}
	all := make([]trace.Event, total)
	events := make([][]trace.Event, len(r.logs))
	dropped := make([]uint64, len(r.logs))
	lo := 0
	for i := range r.logs {
		l := &r.logs[i]
		dropped[i] = l.dropped
		if l.n == 0 {
			continue
		}
		hi := lo + l.n
		l.decode(all[lo:hi])
		events[i] = all[lo:hi:hi]
		lo = hi
		l.rewind()
	}
	return events, dropped
}
