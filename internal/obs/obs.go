// Package obs is the observability layer of the discrete-event
// simulator (internal/core).
//
// It has three parts:
//
//   - a protocol-level event Recorder (steal request/reply sends and
//     deliveries, chunk-transfer sizes, termination-token hops,
//     quantum boundaries) into bounded per-rank logs of delta-varint
//     records, about 6 bytes an event, which keep each rank's newest
//     events and are decoded once, into trace.Event, when the run
//     hands them over. A nil *Recorder is the disabled recorder —
//     every method is a nil-safe no-op, cheap enough that instrumented
//     hot paths need no branching (bench_test.go's
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

// Recorder accumulates protocol-level events into bounded per-rank
// delta-varint logs (log.go). Each rank's log has a single writer — the
// sharded engine records from parallel windows, every rank from the
// shard that owns it — so logs share no storage; beyond that the
// recorder is not safe for concurrent use.
type Recorder struct {
	logs []eventLog
	cap  int
}

// NewRecorder returns a recorder for n ranks with the given per-rank
// log capacity in events (0 means DefaultRingCap). Pages allocate
// lazily, so a large-rank run only pays for ranks that actually log
// events.
func NewRecorder(n, capPerRank int) *Recorder {
	if capPerRank <= 0 {
		capPerRank = DefaultRingCap
	}
	return &Recorder{logs: make([]eventLog, n), cap: capPerRank}
}

// Record appends one event to rank's log, evicting the oldest event
// once the log holds the cap. peer is a rank or tenant index (or -1)
// and is stored as int32. A nil receiver is the disabled fast path.
func (r *Recorder) Record(rank int, t sim.Time, kind trace.EventKind, peer int, arg int64) {
	if r == nil {
		return
	}
	r.logs[rank].add(trace.Event{Time: t, Arg: arg, Peer: int32(peer), Kind: kind}, r.cap)
}

// Dropped returns the total number of evicted events across ranks.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for i := range r.logs {
		n += r.logs[i].dropped
	}
	return n
}

// Snapshot hands the recorded events over, per rank in recording
// order, together with the per-rank eviction counts. It decodes every
// log once into one array of exactly the retained events; each rank's
// slice is cut from it with its capacity capped at its length, so an
// append to one rank's slice cannot overwrite the next rank's. A rank
// that logged nothing gets nil. The recorder is spent afterwards — its
// pages are released, only the eviction counts remain. Nil on a nil
// receiver.
func (r *Recorder) Snapshot() ([][]trace.Event, []uint64) {
	if r == nil {
		return nil, nil
	}
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

// Attach hands the recorded events to tr (see Snapshot: the recorder
// is spent afterwards). A nil receiver leaves tr untouched, so callers
// can attach unconditionally.
func (r *Recorder) Attach(tr *trace.Trace) {
	if r == nil || tr == nil {
		return
	}
	tr.Events, tr.EventsDropped = r.Snapshot()
}
