package obs

import "distws/internal/trace"

// ExportDisposition records how one trace event kind is handled by the
// two exporters this package owns: the Chrome trace writer and the
// Prometheus registry exposition. Every kind must declare both — the
// coverage test walks the table, so adding a kind to internal/trace
// without deciding its exporter treatment fails the build's tests
// rather than silently rendering as a generic instant with no metric.
type ExportDisposition struct {
	// Chrome names the Chrome-trace rendering. All kinds render at
	// least as a thread-scoped protocol instant (the generic path);
	// kinds with richer treatment (flow arrows, counter lanes) say so.
	Chrome string
	// Prometheus names the engine metric family the kind's occurrences
	// feed, or states explicitly that the kind has no metric and why.
	Prometheus string
}

// kindDispositions is the per-kind table, indexed by trace.EventKind.
// The array length pins it to the vocabulary: a new kind without a row
// is a compile-time hole the coverage test reports.
var kindDispositions = [trace.NumEventKinds]ExportDisposition{
	trace.EvStealSend:    {Chrome: "protocol instant + flow-arrow start to the matching receive", Prometheus: "sim_steal_requests_total"},
	trace.EvStealRecv:    {Chrome: "protocol instant + flow-arrow finish", Prometheus: "none: victim-side receipt; request counting happens at the thief"},
	trace.EvWorkSend:     {Chrome: "protocol instant + flow-arrow start", Prometheus: "none: transfer outcome is booked at the receiver"},
	trace.EvWorkRecv:     {Chrome: "protocol instant + flow-arrow finish", Prometheus: "sim_steal_success_total"},
	trace.EvNoWorkSend:   {Chrome: "protocol instant + flow-arrow start", Prometheus: "none: failure is booked at the thief"},
	trace.EvNoWorkRecv:   {Chrome: "protocol instant + flow-arrow finish", Prometheus: "sim_steal_fail_total"},
	trace.EvTokenSend:    {Chrome: "protocol instant", Prometheus: "none: hops are counted on receipt"},
	trace.EvTokenRecv:    {Chrome: "protocol instant", Prometheus: "sim_token_hops_total"},
	trace.EvTerminate:    {Chrome: "protocol instant ending the rank's lane", Prometheus: "none: one per rank per run; Makespan carries the information"},
	trace.EvQuantumStart: {Chrome: "protocol instant (quantum boundary)", Prometheus: "none: quantum counts derive from sim_chunk_nodes and node totals"},
	trace.EvQuantumEnd:   {Chrome: "protocol instant (quantum boundary)", Prometheus: "none: see EvQuantumStart"},
	trace.EvStealAbort:   {Chrome: "protocol instant (no flow arrow: the reply never resolved)", Prometheus: "sim_steal_aborted_total"},
	trace.EvStealRetry:   {Chrome: "protocol instant", Prometheus: "none: retries are a sub-population of sim_steal_requests_total"},
	trace.EvCrash:        {Chrome: "protocol instant ending the rank's lane", Prometheus: "sim_crashes_total (fault runs only)"},
	trace.EvMsgDrop:      {Chrome: "protocol instant at the sender", Prometheus: "sim_lost_work_messages_total (fault runs only)"},
	trace.EvTokenRegen:   {Chrome: "protocol instant at the regenerating rank", Prometheus: "sim_token_regens_total (fault runs only)"},
	trace.EvJobArrive:    {Chrome: "protocol instant at the placement rank (serving runs)", Prometheus: "sim_serve_jobs_arrived_total (serving runs only)"},
	trace.EvJobAdmit:     {Chrome: "protocol instant at the placement rank (serving runs)", Prometheus: "sim_serve_jobs_admitted_total (serving runs only)"},
	trace.EvJobReject:    {Chrome: "protocol instant at the placement rank (serving runs)", Prometheus: "sim_serve_jobs_rejected_total (serving runs only)"},
	trace.EvJobDone:      {Chrome: "protocol instant at the placement rank (serving runs)", Prometheus: "sim_serve_jobs_done_total and sim_serve_job_sojourn_ns (serving runs only)"},
	trace.EvJobLost:      {Chrome: "protocol instant at the placement rank (serving runs)", Prometheus: "sim_serve_jobs_lost_total (faulted serving runs only)"},
}

// KindDisposition returns the exporter disposition for one event kind
// (zero value for out-of-range kinds).
func KindDisposition(k trace.EventKind) ExportDisposition {
	if k < 0 || k >= trace.NumEventKinds {
		return ExportDisposition{}
	}
	return kindDispositions[k]
}
