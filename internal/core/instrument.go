package core

import "distws/internal/obs"

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
// add instead of a map lookup. The handles are nil-safe, so call sites
// use them unconditionally: without a registry every handle is nil, and
// a partially populated struct (no fault handles) is the same case.
// Every engine resolves its own set; the handles of a sharded run's
// engines point into the one registry.
type engineMetrics struct {
	stealRequests *obs.Counter
	stealSuccess  *obs.Counter
	stealFail     *obs.Counter
	stealAborted  *obs.Counter
	tokenHops     *obs.Counter
	stealLatency  *obs.Histogram
	session       *obs.Histogram
	chunkNodes    *obs.Histogram

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
func newEngineMetrics(reg *obs.Registry, faulted bool) engineMetrics {
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
