package core

import "distws/internal/obs"

// MatrixRankLimit caps the rank count for which the engine maintains a
// dense per-link traffic matrix in the metrics registry: the matrix is
// O(Ranks²) memory, which at the paper's 8192-rank scale would dwarf
// the simulation state itself. Beyond the limit the matrix is simply
// absent from the registry; cmd/tracetool reconstructs full traffic
// matrices from the event log instead.
const MatrixRankLimit = 1024

// Metric names the engine publishes into Config.Metrics. The _ns
// histograms hold virtual nanoseconds: for a deterministic
// configuration the registry contents are a pure function of the run,
// which the determinism test asserts by comparing exposition text.
const (
	MetricStealRequests = "sim_steal_requests_total"
	MetricStealSuccess  = "sim_steal_success_total"
	MetricStealFail     = "sim_steal_fail_total"
	MetricStealAborted  = "sim_steal_aborted_total"
	MetricTokenHops     = "sim_token_hops_total"
	MetricStealLatency  = "sim_steal_latency_ns"
	MetricSession       = "sim_session_ns"
	MetricChunkNodes    = "sim_chunk_nodes"
	MetricLinkMessages  = "sim_link_messages"
)

// Fault metric names, registered only when a fault plan is active so
// that fault-free expositions (pinned by the golden test) are
// byte-identical with or without the subsystem compiled in.
const (
	MetricCrashes         = "sim_crashes_total"
	MetricLostNodes       = "sim_lost_nodes_total"
	MetricLostMessages    = "sim_lost_work_messages_total"
	MetricDupMessages     = "sim_duplicated_messages_total"
	MetricTokenRegens     = "sim_token_regens_total"
	MetricRecoveryLatency = "sim_recovery_latency_ns"
)

// Serving metric names, registered by the serving workload
// (compileServe) only when Config.Serve is set — the same gating
// discipline as the fault metrics, so closed-system expositions stay
// byte-identical; MetricJobsLost needs a fault plan too. The per-tenant
// sojourn histograms are MetricJobSojourn suffixed with "_tenant<i>".
const (
	MetricJobsArrived  = "sim_serve_jobs_arrived_total"
	MetricJobsAdmitted = "sim_serve_jobs_admitted_total"
	MetricJobsRejected = "sim_serve_jobs_rejected_total"
	MetricJobsDone     = "sim_serve_jobs_done_total"
	MetricJobSojourn   = "sim_serve_job_sojourn_ns"
	MetricJobsLost     = "sim_serve_jobs_lost_total"
)

// engineMetrics pre-resolves the registry handles the hot paths touch,
// so a counter or histogram update costs one nil check plus an atomic
// add instead of a map lookup, and a link count one nil check plus a
// buffered store (linkTally). The handles are nil-safe, so call sites
// use them unconditionally: without a registry every handle is nil, and
// a partially populated struct (links absent past MatrixRankLimit, no
// fault handles) is the same case. Every engine resolves its
// own set: the obs handles of a sharded run's engines point into the
// one registry, the link tally is each engine's own.
type engineMetrics struct {
	stealRequests *obs.Counter
	stealSuccess  *obs.Counter
	stealFail     *obs.Counter
	stealAborted  *obs.Counter
	tokenHops     *obs.Counter
	stealLatency  *obs.Histogram
	session       *obs.Histogram
	chunkNodes    *obs.Histogram
	links         *linkTally

	// Fault handles; nil (and hence no-ops) for fault-free runs, which
	// keeps them out of the registry's exposition.
	crashes         *obs.Counter
	lostNodes       *obs.Counter
	lostMessages    *obs.Counter
	dupMessages     *obs.Counter
	tokenRegens     *obs.Counter
	recoveryLatency *obs.Histogram
}

// newEngineMetrics resolves the handle set for a run: the core handles
// always, the fault handles when a fault plan is active.
func newEngineMetrics(reg *obs.Registry, ranks int, faulted bool) engineMetrics {
	if reg == nil {
		return engineMetrics{}
	}
	m := engineMetrics{
		stealRequests: reg.Counter(MetricStealRequests),
		stealSuccess:  reg.Counter(MetricStealSuccess),
		stealFail:     reg.Counter(MetricStealFail),
		stealAborted:  reg.Counter(MetricStealAborted),
		tokenHops:     reg.Counter(MetricTokenHops),
		stealLatency:  reg.Histogram(MetricStealLatency),
		session:       reg.Histogram(MetricSession),
		chunkNodes:    reg.Histogram(MetricChunkNodes),
	}
	if ranks <= MatrixRankLimit {
		m.links = newLinkTally(reg.Matrix(MetricLinkMessages, ranks), ranks)
	}
	if faulted {
		m.crashes = reg.Counter(MetricCrashes)
		m.lostNodes = reg.Counter(MetricLostNodes)
		m.lostMessages = reg.Counter(MetricLostMessages)
		m.dupMessages = reg.Counter(MetricDupMessages)
		m.tokenRegens = reg.Counter(MetricTokenRegens)
		m.recoveryLatency = reg.Histogram(MetricRecoveryLatency)
	}
	return m
}

// linkBatch is how many link counts a tally holds back before it folds
// them into the matrix: what a mid-run scrape of MetricLinkMessages can
// lag by, per engine.
const linkBatch = 1 << 15

// link is one message on the (from, to) link. The constant conversion
// stops compiling if MatrixRankLimit ever outgrows uint16.
type link struct{ from, to uint16 }

const _ = uint16(MatrixRankLimit - 1)

// linkTally batches one engine's per-link message counts on their way
// to the registry's traffic matrix. Counted directly, every message is
// an add to a uniformly random cell of ranks² words — 8 MB at
// MatrixRankLimit, a cache miss each. The tally buffers the links and
// folds a full batch grouped by sender, so one 8 KB row is hot while
// its adds land. Adds commute, so after the last fold (result) the
// matrix is cell for cell what direct counting leaves, sequential or
// sharded; the engine's other metrics stay live.
type linkTally struct {
	m   *obs.Matrix
	buf []link // pending counts; cap linkBatch
	// Fold scratch, allocated once: row[f] is where sender f's next link
	// goes in sorted.
	row    []uint32
	sorted []link
}

func newLinkTally(m *obs.Matrix, ranks int) *linkTally {
	return &linkTally{
		m:      m,
		buf:    make([]link, 0, linkBatch),
		row:    make([]uint32, ranks),
		sorted: make([]link, linkBatch),
	}
}

// Inc counts one message on the (from, to) link. Nil-safe.
func (t *linkTally) Inc(from, to int) {
	if t == nil {
		return
	}
	t.buf = append(t.buf, link{uint16(from), uint16(to)})
	if len(t.buf) == cap(t.buf) {
		t.fold()
	}
}

// fold adds the pending counts to the matrix, a counting sort on the
// sender first. Nil-safe.
func (t *linkTally) fold() {
	if t == nil {
		return
	}
	clear(t.row)
	for _, l := range t.buf {
		t.row[l.from]++
	}
	at := uint32(0)
	for f, n := range t.row {
		t.row[f], at = at, at+n
	}
	for _, l := range t.buf {
		t.sorted[t.row[l.from]] = l
		t.row[l.from]++
	}
	for _, l := range t.sorted[:len(t.buf)] {
		t.m.Add(int(l.from), int(l.to), 1)
	}
	t.buf = t.buf[:0]
}
