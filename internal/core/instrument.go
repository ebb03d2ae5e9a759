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

// engineMetrics pre-resolves the registry handles the hot paths touch,
// so a counter or histogram update costs one nil check plus an atomic
// add instead of a map lookup. The handles are nil-safe, so call sites
// use them unconditionally: without a registry every handle is nil.
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
}

// newEngineMetrics resolves the handle set for a run.
func newEngineMetrics(reg *obs.Registry) engineMetrics {
	if reg == nil {
		return engineMetrics{}
	}
	return engineMetrics{
		stealRequests: reg.Counter(MetricStealRequests),
		stealSuccess:  reg.Counter(MetricStealSuccess),
		stealFail:     reg.Counter(MetricStealFail),
		stealAborted:  reg.Counter(MetricStealAborted),
		tokenHops:     reg.Counter(MetricTokenHops),
		stealLatency:  reg.Histogram(MetricStealLatency),
		session:       reg.Histogram(MetricSession),
		chunkNodes:    reg.Histogram(MetricChunkNodes),
	}
}
