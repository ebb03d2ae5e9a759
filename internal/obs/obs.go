// Package obs is the observability layer of the discrete-event
// simulator (internal/core).
//
// It has two parts:
//
//   - the run's one Recorder. At the activity level it keeps each
//     rank's active/idle transitions; at the events level it also logs
//     every protocol event (steal request/reply sends and deliveries,
//     chunk-transfer sizes, termination-token hops, quantum
//     boundaries, crashes) into bounded per-rank logs of delta-varint
//     records, about 6 bytes an event, which keep each rank's newest
//     events and are decoded once, into trace.Event, when Finish hands
//     the trace over. What a recording
//     writes into — the log pages and the per-rank transition scratch —
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
//     the work-discovery sessions derived from the transitions,
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
	// cap is the per-rank log capacity in events at the events level,
	// 0 at the activity level, where Record records nothing.
	cap int
	// logs and trs hold the run's n ranks, logs none at the activity
	// level. Past their length, up to their capacity, are the empty
	// logs and transition scratch of larger earlier recordings, pages
	// and capacity kept.
	logs []eventLog
	trs  [][]trace.Transition
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
	r.trs = resize(r.trs, n)
	if !events {
		r.cap, r.logs = 0, r.logs[:0]
		return r
	}
	if capPerRank <= 0 {
		capPerRank = DefaultRingCap
	}
	r.cap, r.logs = capPerRank, resize(r.logs, n)
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

// empty rewinds every log to spare pages with no eviction count and
// cuts every transition slice to length 0 with its capacity kept, so r
// pins no trace.
func (r *Recorder) empty() {
	for i := range r.logs {
		r.logs[i].rewind()
		r.logs[i].dropped = 0
	}
	for i := range r.trs {
		r.trs[i] = r.trs[i][:0]
	}
}

// Bytes is the storage r keeps for later recordings: its per-rank
// headers, log pages and transition scratch.
func (r *Recorder) Bytes() int {
	b := cap(r.logs)*int(unsafe.Sizeof(eventLog{})) + cap(r.trs)*int(unsafe.Sizeof([]trace.Transition{}))
	for _, l := range r.logs[:cap(r.logs)] {
		b += l.pages * int(unsafe.Sizeof(page{}))
	}
	for _, trs := range r.trs[:cap(r.trs)] {
		b += cap(trs) * int(unsafe.Sizeof(trace.Transition{}))
	}
	return b
}

// Mark notes that rank entered phase s at time t; ranks start idle,
// and the phase a rank is in adds no transition.
func (r *Recorder) Mark(rank int, t sim.Time, s trace.State) {
	if r != nil {
		r.mark(rank, t, s)
	}
}

func (r *Recorder) mark(rank int, t sim.Time, s trace.State) {
	trs := r.trs[rank]
	if len(trs) == 0 && s == trace.Idle || len(trs) > 0 && trs[len(trs)-1].State == s {
		return
	}
	r.trs[rank] = append(trs, trace.Transition{Time: t, State: s})
}

// Record notes one protocol event of rank at time t; peer is a rank or
// tenant index (or -1). At the events level the event joins rank's
// log, which evicts its oldest at the cap; at the activity level it is
// not recorded.
func (r *Recorder) Record(rank int, t sim.Time, kind trace.EventKind, peer int, arg int64) {
	// Inlined at every site: off, or at the activity level, a record
	// costs two compares and no call.
	if r != nil && r.cap != 0 {
		r.record(rank, t, kind, peer, arg)
	}
}

// record is kept out of line: inlined into Record it would take Record
// over the inline budget, and then every engine call site, untraced
// runs included, would pay a call.
//
//go:noinline
func (r *Recorder) record(rank int, t sim.Time, kind trace.EventKind, peer int, arg int64) {
	r.logs[rank].add(trace.Event{Time: t, Arg: arg, Peer: int32(peer), Kind: kind}, r.cap)
}

// Finish ends the recording at end, the run's makespan, and returns
// its trace, nil on a nil receiver: the transitions, and at the events
// level the logs, are handed over (snapshot). The trace shares no
// memory with the recorder, which is left empty, its storage kept: as
// Reset left it for this run's ranks, level and cap.
func (r *Recorder) Finish(end sim.Time) *trace.Trace {
	if r == nil {
		return nil
	}
	tr := &trace.Trace{End: end, Transitions: r.handOver()}
	if len(r.logs) != 0 {
		tr.Events, tr.EventsDropped = r.snapshot()
	}
	r.empty()
	return tr
}

// handOver copies each rank's transitions into one array of exactly
// their total and cuts each rank's slice from it with its capacity
// capped at its length, so an append to one rank's slice cannot
// overwrite the next rank's. A rank with no transition gets nil.
func (r *Recorder) handOver() [][]trace.Transition {
	total := 0
	for _, trs := range r.trs {
		total += len(trs)
	}
	all := make([]trace.Transition, total)
	out := make([][]trace.Transition, len(r.trs))
	lo := 0
	for i, trs := range r.trs {
		if hi := lo + copy(all[lo:], trs); hi > lo {
			out[i] = all[lo:hi:hi]
			lo = hi
		}
	}
	return out
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
