package core

import (
	"strconv"

	"distws/internal/obs"
)

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

// Serving metric names, registered only when Config.Serve is set — the
// same gating discipline as the fault metrics, so closed-system
// expositions stay byte-identical. The per-tenant sojourn histograms
// are MetricJobSojourn suffixed with "_tenant<i>".
const (
	MetricJobsArrived  = "sim_serve_jobs_arrived_total"
	MetricJobsAdmitted = "sim_serve_jobs_admitted_total"
	MetricJobsRejected = "sim_serve_jobs_rejected_total"
	MetricJobsDone     = "sim_serve_jobs_done_total"
	MetricJobSojourn   = "sim_serve_job_sojourn_ns"
)

// engineMetrics pre-resolves the registry handles the hot paths touch,
// so instrumentation costs one nil check plus an atomic add instead of
// a map lookup. The obs handles are nil-safe, so call sites use them
// unconditionally: without a registry every handle is nil, and a
// partially populated struct (links absent past MatrixRankLimit, no
// fault or serving handles) is the same case.
type engineMetrics struct {
	stealRequests *obs.Counter
	stealSuccess  *obs.Counter
	stealFail     *obs.Counter
	stealAborted  *obs.Counter
	tokenHops     *obs.Counter
	stealLatency  *obs.Histogram
	session       *obs.Histogram
	chunkNodes    *obs.Histogram
	links         *obs.Matrix

	// Fault handles; nil (and hence no-ops) for fault-free runs, which
	// keeps them out of the registry's exposition.
	crashes         *obs.Counter
	lostNodes       *obs.Counter
	lostMessages    *obs.Counter
	dupMessages     *obs.Counter
	tokenRegens     *obs.Counter
	recoveryLatency *obs.Histogram

	// Serving handles; nil for closed-system runs.
	jobsArrived   *obs.Counter
	jobsAdmitted  *obs.Counter
	jobsRejected  *obs.Counter
	jobsDone      *obs.Counter
	jobSojourn    *obs.Histogram
	tenantSojourn []*obs.Histogram
}

// newEngineMetrics resolves the handle set for a run: the core handles
// always, the fault handles when a fault plan is active, and the
// serving handles (including tenants per-tenant sojourn histograms)
// when tenants > 0. tenantSojourn is indexed at every job completion,
// so it has its tenants entries (nil handles) even without a registry.
func newEngineMetrics(reg *obs.Registry, ranks int, faulted bool, tenants int) engineMetrics {
	sojourn := make([]*obs.Histogram, tenants)
	if reg == nil {
		return engineMetrics{tenantSojourn: sojourn}
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
		tenantSojourn: sojourn,
	}
	if ranks <= MatrixRankLimit {
		m.links = reg.Matrix(MetricLinkMessages, ranks)
	}
	if faulted {
		m.crashes = reg.Counter(MetricCrashes)
		m.lostNodes = reg.Counter(MetricLostNodes)
		m.lostMessages = reg.Counter(MetricLostMessages)
		m.dupMessages = reg.Counter(MetricDupMessages)
		m.tokenRegens = reg.Counter(MetricTokenRegens)
		m.recoveryLatency = reg.Histogram(MetricRecoveryLatency)
	}
	if tenants > 0 {
		m.jobsArrived = reg.Counter(MetricJobsArrived)
		m.jobsAdmitted = reg.Counter(MetricJobsAdmitted)
		m.jobsRejected = reg.Counter(MetricJobsRejected)
		m.jobsDone = reg.Counter(MetricJobsDone)
		m.jobSojourn = reg.Histogram(MetricJobSojourn)
		for i := range m.tenantSojourn {
			m.tenantSojourn[i] = reg.Histogram(MetricJobSojourn + "_tenant" + strconv.Itoa(i))
		}
	}
	return m
}
