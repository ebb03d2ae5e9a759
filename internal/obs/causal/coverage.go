package causal

import "distws/internal/trace"

// kindDisposition states, for every protocol event kind, how the causal
// reconstruction treats it: "consumed:" kinds drive Build, Blame or the
// critical path; "inert:" kinds are deliberately not causal, with the
// reason the reconstruction stays correct without them. The table is a
// contract, not documentation: TestEveryEventKindHasDisposition fails
// compilation-free drift in both directions — a kind added to
// internal/trace without a row here (the array index forces the row to
// exist, the test forces it to be non-empty), and a row whose claim the
// package sources contradict (consumed kinds must be referenced, inert
// kinds must not be).
var kindDisposition = [trace.NumEventKinds]string{
	trace.EvStealSend: "consumed: opens a request in Blame's search/in-flight split; " +
		"its per-request id anchors Transfer lineage (ReqSendIdx) in Build",
	trace.EvStealRecv: "consumed: confirms the victim-side request match when Build " +
		"attributes a Transfer's originating request",
	trace.EvWorkSend: "consumed: the victim half of Transfer matching in Build",
	trace.EvWorkRecv: "consumed: the thief half of Transfer matching and the " +
		"work-arrival edges of the critical path",
	trace.EvNoWorkSend: "inert: refusals are charged to the thief via EvNoWorkRecv; " +
		"the victim-side record exists for the exporters only",
	trace.EvNoWorkRecv: "consumed: closes an open request in Blame's idle-time split",
	trace.EvStealAbort: "consumed: closes an open request in Blame (the thief gave up)",
	trace.EvTokenSend:  "consumed: the sender half of TokenHop matching in Build",
	trace.EvTokenRecv: "consumed: the receiver half of TokenHop matching and the " +
		"token edges of the critical path",
	trace.EvTerminate: "inert: termination time comes from the transition log and the " +
		"trace end, not from the terminate marker",
	trace.EvQuantumStart: "consumed: opens a Quantum vertex",
	trace.EvQuantumEnd:   "consumed: closes a Quantum vertex",
	trace.EvCrash: "inert: a crashed rank stops producing events, so its open quantum " +
		"has no EvQuantumEnd and is dropped — lost compute never becomes causal work",
	trace.EvStealRetry: "inert: every retry also records a fresh EvStealSend, which " +
		"carries the causal weight; the retry marker only annotates timeout counts",
	trace.EvTokenRegen: "inert: the regenerated token's own EvTokenSend drives TokenHop " +
		"matching; the marker only flags that the ring was repaired",
	trace.EvMsgDrop: "inert: a dropped message has no receive event, so tail-aligned " +
		"matching skips its unmatched send; the drop marker creates no edge",
	trace.EvJobArrive: "inert: job arrival is an open-system boundary event with no " +
		"intra-run cause; the injected work's own quantum events carry the causal weight",
	trace.EvJobAdmit: "inert: admission only gates whether root work is injected; the " +
		"injected quantum and steal events downstream carry the causal weight",
	trace.EvJobReject: "inert: a rejected job injects nothing, so there is no effect " +
		"to attribute; rejection counts live in the serve manifest, not the graph",
	trace.EvJobDone: "inert: job completion is derived bookkeeping over the work ledger; " +
		"the final leaf's quantum already ends the causal chain",
	trace.EvJobLost: "inert: like EvJobDone, bookkeeping over the work ledger; the crash " +
		"or drop that destroyed the work has its own marker",
	trace.EvWorkLate: "consumed: read as EvWorkRecv (trace.EventKind.ReceivesWork) — " +
		"the thief half of a Transfer and a work-arrival edge of the critical path",
}
