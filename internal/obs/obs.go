// Package obs is the observability layer of the discrete-event
// simulator (internal/core).
//
// It has three parts:
//
//   - the run's one Recorder. At the activity level it keeps each
//     rank's active/idle transitions and the work-discovery sessions
//     it folds out of the engine's phase marks and protocol events;
//     at the events level it also logs every protocol event (steal
//     request/reply sends and deliveries, chunk-transfer sizes,
//     termination-token hops, quantum boundaries) into bounded
//     per-rank logs of delta-varint records, about 6 bytes an event,
//     which keep each rank's newest events and are decoded once, into
//     trace.Event, when Finish hands the trace over. A nil *Recorder
//     records nothing — every method is a nil-safe no-op, cheap enough
//     that instrumented hot paths need no branching (bench_test.go's
//     BenchmarkObservability shows the disabled path within noise of
//     no instrumentation);
//
//   - a metrics Registry of named counters and log-bucketed
//     histograms, read after the run. Its final contents are a pure
//     function of the run, in deterministic virtual time; the updates
//     are lock-free atomics because the shard engines of a sharded run
//     write one registry concurrently. This package never reads the
//     host clock (the walltime analyzer enforces it);
//
//   - exporters: Chrome trace-event JSON (opens in Perfetto or
//     chrome://tracing) and Prometheus text exposition, plus trace
//     analyses (occupancy and SL/EL, steal-latency percentiles,
//     rank×rank traffic matrix, termination-tail breakdown) that
//     causal.Analysis memoizes and cmd/uts reports.
package obs

import (
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
// events level the protocol event logs (log.go). Each rank's state has
// a single writer — the sharded engine records from parallel windows,
// every rank from the shard that owns it — so ranks share no storage;
// beyond that the recorder is not safe for concurrent use. A rank's
// calls come at non-negative, non-decreasing times.
type Recorder struct {
	n int
	// kinds has bit k set when Record acts on kind k: every kind at
	// the events level, the fold's kinds at the activity level.
	kinds uint64
	logs  []eventLog // nil at the activity level
	cap   int
	// transitions and sessions are the activity trace, allocated by
	// the first Mark (or by Finish): an engine marks its seeds before
	// any shard runs, and a recorder fed events only never pays for
	// them. A rank's open session is its last one, with End -1.
	transitions [][]trace.Transition
	sessions    [][]trace.Session
}

// NewRecorder returns an events-level recorder for n ranks with the
// given per-rank log capacity in events (0 means DefaultRingCap). Pages
// allocate lazily, so a large-rank run only pays for ranks that
// actually log events.
func NewRecorder(n, capPerRank int) *Recorder {
	if capPerRank <= 0 {
		capPerRank = DefaultRingCap
	}
	return &Recorder{n: n, kinds: ^uint64(0), logs: make([]eventLog, n), cap: capPerRank}
}

// NewActivityRecorder returns an activity-level recorder for n ranks.
func NewActivityRecorder(n int) *Recorder { return &Recorder{n: n, kinds: foldKinds} }

// foldKinds are the event kinds the session fold reads.
const foldKinds = 1<<trace.EvWorkRecv | 1<<trace.EvNoWorkRecv | 1<<trace.EvStealAbort | 1<<trace.EvCrash

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
	r.allocActivity()
	if open := r.open(rank); s == trace.Active && open != nil {
		open.End, open.Success = t, true
	} else if s == trace.Idle && open == nil {
		r.sessions[rank] = append(r.sessions[rank], trace.Session{Start: t, End: -1})
	}
	r.transition(rank, t, s)
}

// Record notes one protocol event of rank at time t; peer is a rank or
// tenant index (or -1). At the events level the event joins rank's
// log, which evicts its oldest at the cap. At both levels the fold
// reads it: in rank's open session, a steal abort or refusal counts a
// failed attempt and a work reply a successful one (a working rank
// banking a late reply has none open); a crash closes the open
// session without success, or marks an active rank idle.
func (r *Recorder) Record(rank int, t sim.Time, kind trace.EventKind, peer int, arg int64) {
	// Inlined at every site: off, or at the activity level with nothing
	// to fold, a record costs a few compares and no call.
	if r != nil && r.kinds>>kind&1 != 0 {
		r.record(rank, t, kind, peer, arg)
	}
}

func (r *Recorder) record(rank int, t sim.Time, kind trace.EventKind, peer int, arg int64) {
	if foldKinds>>kind&1 != 0 && r.sessions != nil {
		switch open := r.open(rank); {
		case open == nil && kind == trace.EvCrash:
			r.transition(rank, t, trace.Idle)
		case open == nil:
		case kind == trace.EvCrash:
			open.End = t
		default:
			open.Attempts++
			if kind != trace.EvWorkRecv {
				open.Failed++
			}
		}
	}
	if r.logs != nil {
		r.logs[rank].add(trace.Event{Time: t, Arg: arg, Peer: int32(peer), Kind: kind}, r.cap)
	}
}

// Finish ends the recording at end, the run's makespan, and returns
// its trace, nil on a nil receiver: the open sessions close at end, no
// session reaches past end (as one a crash after detection closed
// would), and at the events level the logs are handed over
// (snapshot). The recorder is spent afterwards.
func (r *Recorder) Finish(end sim.Time) *trace.Trace {
	if r == nil {
		return nil
	}
	r.allocActivity()
	for _, ss := range r.sessions {
		for i := range ss {
			if ss[i].End < 0 || ss[i].End > end {
				ss[i].End = end
			}
		}
	}
	tr := &trace.Trace{End: end, Transitions: r.transitions, Sessions: r.sessions}
	if r.logs != nil {
		tr.Events, tr.EventsDropped = r.snapshot()
	}
	return tr
}

func (r *Recorder) allocActivity() {
	if r.sessions == nil {
		r.transitions, r.sessions = make([][]trace.Transition, r.n), make([][]trace.Session, r.n)
	}
}

// open returns rank's open session, nil if it has none.
func (r *Recorder) open(rank int) *trace.Session {
	ss := r.sessions[rank]
	if len(ss) == 0 || ss[len(ss)-1].End >= 0 {
		return nil
	}
	return &ss[len(ss)-1]
}

// transition appends rank's change to phase s at t, unless it is in s.
func (r *Recorder) transition(rank int, t sim.Time, s trace.State) {
	tr := r.transitions[rank]
	if len(tr) == 0 && s == trace.Idle || len(tr) > 0 && tr[len(tr)-1].State == s {
		return
	}
	r.transitions[rank] = append(tr, trace.Transition{Time: t, State: s})
}

// snapshot hands the recorded events over, per rank in recording
// order, together with the per-rank eviction counts. It decodes every
// log once into one array of exactly the retained events; each rank's
// slice is cut from it with its capacity capped at its length, so an
// append to one rank's slice cannot overwrite the next rank's. A rank
// that logged nothing gets nil. The logs are spent afterwards — their
// pages are released, only the eviction counts remain.
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
		*l = eventLog{dropped: l.dropped}
	}
	return events, dropped
}
