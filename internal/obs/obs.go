// Package obs is the observability layer of the discrete-event
// simulator (internal/core).
//
// It has three parts:
//
//   - a protocol-level event Recorder: bounded per-rank ring buffers
//     of trace.Event (steal request/reply sends and deliveries,
//     chunk-transfer sizes, termination-token hops, quantum
//     boundaries). A nil *Recorder is the disabled recorder — every
//     method is a nil-safe no-op, cheap enough that instrumented hot
//     paths need no branching (bench_test.go's BenchmarkObservability
//     shows the disabled path within noise of no instrumentation);
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
//     causal.Analysis memoizes and cmd/tracetool reports.
package obs

import (
	"slices"

	"distws/internal/sim"
	"distws/internal/trace"
)

// DefaultRingCap is the default per-rank event ring capacity (events,
// not bytes). At 24 bytes per event a full ring holds 192 KiB of
// events — 216 KiB of storage with the slack append's growth leaves —
// so recording memory is bounded to ~200 KiB per rank; runs that
// outgrow it keep the newest events and count the evicted ones.
const DefaultRingCap = 1 << 13

// Recorder accumulates protocol-level events into bounded per-rank
// rings. Each rank's ring has a single writer — the sharded engine
// records from parallel windows, every rank from the shard that owns
// it — so rings share no storage; beyond that the recorder is not safe
// for concurrent use.
type Recorder struct {
	rings []ring
	cap   int
}

// ring is one rank's bounded event buffer. Storage grows on demand up
// to the cap, then wraps: head indexes the oldest retained event.
type ring struct {
	buf     []trace.Event
	head    int
	dropped uint64
}

// NewRecorder returns a recorder for n ranks with the given per-rank
// ring capacity (0 means DefaultRingCap). Rings allocate lazily, so a
// large-rank run only pays for ranks that actually log events.
func NewRecorder(n, capPerRank int) *Recorder {
	if capPerRank <= 0 {
		capPerRank = DefaultRingCap
	}
	return &Recorder{rings: make([]ring, n), cap: capPerRank}
}

// Enabled reports whether events are being recorded. It is valid (and
// false) on a nil receiver.
func (r *Recorder) Enabled() bool { return r != nil }

// Record appends one event to rank's ring, evicting the oldest event
// once the ring is full. peer is a rank or tenant index (or -1) and is
// stored as int32. A nil receiver is the disabled fast path.
func (r *Recorder) Record(rank int, t sim.Time, kind trace.EventKind, peer int, arg int64) {
	if r == nil {
		return
	}
	g := &r.rings[rank]
	if len(g.buf) < r.cap {
		g.buf = append(g.buf, trace.Event{Time: t, Arg: arg, Peer: int32(peer), Kind: kind})
		return
	}
	g.buf[g.head] = trace.Event{Time: t, Arg: arg, Peer: int32(peer), Kind: kind}
	g.head++
	if g.head == len(g.buf) {
		g.head = 0
	}
	g.dropped++
}

// Dropped returns the total number of evicted events across ranks.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for i := range r.rings {
		n += r.rings[i].dropped
	}
	return n
}

// Snapshot hands the recorded events over, per rank in time order,
// together with the per-rank eviction counts. The slices returned are
// the rings' own storage (a wrapped ring is rotated in place), not
// copies: the recorder is spent afterwards — its rings are empty, only
// the eviction counts remain. Nil on a nil receiver.
func (r *Recorder) Snapshot() ([][]trace.Event, []uint64) {
	if r == nil {
		return nil, nil
	}
	events := make([][]trace.Event, len(r.rings))
	dropped := make([]uint64, len(r.rings))
	for i := range r.rings {
		g := &r.rings[i]
		dropped[i] = g.dropped
		if g.head != 0 {
			// Three reversals move buf[head:], the oldest events, to
			// the front.
			slices.Reverse(g.buf[:g.head])
			slices.Reverse(g.buf[g.head:])
			slices.Reverse(g.buf)
		}
		events[i] = g.buf
		g.buf, g.head = nil, 0
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
