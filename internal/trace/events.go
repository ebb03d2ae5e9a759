package trace

import "distws/internal/sim"

// EventKind identifies one protocol-level trace event. The activity
// trace (Transition/Session) answers *when* ranks were busy; the event
// log answers *why*: where steal round trips go, which links carry the
// failed-steal floods of the paper's Figure 7, and what the
// termination tail looks like hop by hop.
type EventKind uint8

// The protocol event taxonomy. Send events are recorded on the sending
// rank with Peer = destination; receive events on the receiving rank
// with Peer = source. Arg is kind-specific (documented per kind).
const (
	// EvStealSend: a thief posts a steal request. Peer = victim,
	// Arg = request id.
	EvStealSend EventKind = iota
	// EvStealRecv: the victim observes the request. Peer = thief,
	// Arg = request id.
	EvStealRecv
	// EvWorkSend: the victim posts stolen work. Peer = thief,
	// Arg = nodes transferred (the chunk-transfer size).
	EvWorkSend
	// EvWorkRecv: the thief receives work. Peer = victim, Arg = nodes.
	EvWorkRecv
	// EvNoWorkSend: the victim declines. Peer = thief, Arg = request id.
	EvNoWorkSend
	// EvNoWorkRecv: the thief receives the refusal. Peer = victim,
	// Arg = request id.
	EvNoWorkRecv
	// EvStealAbort: the thief abandons an outstanding request (aborting
	// steals). Peer = victim, Arg = request id.
	EvStealAbort
	// EvTokenSend: a termination token leaves a rank. Peer = successor.
	EvTokenSend
	// EvTokenRecv: a termination token arrives. Peer = predecessor.
	EvTokenRecv
	// EvTerminate: the rank observes termination. Peer = -1.
	EvTerminate
	// EvQuantumStart: a compute quantum begins. Peer = -1, Arg = the
	// rank's stack length at quantum start.
	EvQuantumStart
	// EvQuantumEnd: a compute quantum ends. Peer = -1, Arg = the rank's
	// cumulative expansion units (deltas between consecutive quantum
	// ends give per-quantum work).
	EvQuantumEnd
	// EvCrash: the rank fail-stops (fault injection). Peer = -1,
	// Arg = nodes lost from its local stack at the instant of death.
	EvCrash
	// EvStealRetry: a thief re-sends after a timed-out request.
	// Peer = the new victim, Arg = consecutive timeouts so far.
	EvStealRetry
	// EvTokenRegen: the termination ring regenerates a token lost with a
	// crashed rank. Recorded on the initiator alongside the EvTokenSend
	// of the fresh token. Peer = successor, Arg = new round number.
	EvTokenRegen
	// EvMsgDrop: a message was lost — dropped by the faulty link or
	// addressed to a crashed rank. Recorded on the sender at the moment
	// the loss is resolved. Peer = destination, Arg = nodes lost
	// (0 for control messages).
	EvMsgDrop
	// EvJobArrive: an open-system job arrives from a tenant (serving
	// mode). Recorded on the job's placement rank. Peer = tenant index,
	// Arg = job id.
	EvJobArrive
	// EvJobAdmit: the tenant's admission token bucket accepts the job
	// and its root work is injected. Peer = tenant index, Arg = job id.
	EvJobAdmit
	// EvJobReject: the admission bucket (or the job cap) turns the job
	// away; no work is injected. Peer = tenant index, Arg = job id.
	EvJobReject
	// EvJobDone: the last node of an admitted job is consumed anywhere
	// in the system. Recorded on the job's placement rank at the
	// completion instant. Peer = tenant index, Arg = job id.
	EvJobDone

	// NumEventKinds bounds the kind space for validation and tables.
	NumEventKinds
)

var eventKindNames = [NumEventKinds]string{
	EvStealSend:    "steal-send",
	EvStealRecv:    "steal-recv",
	EvWorkSend:     "work-send",
	EvWorkRecv:     "work-recv",
	EvNoWorkSend:   "nowork-send",
	EvNoWorkRecv:   "nowork-recv",
	EvStealAbort:   "steal-abort",
	EvTokenSend:    "token-send",
	EvTokenRecv:    "token-recv",
	EvTerminate:    "terminate",
	EvQuantumStart: "quantum-start",
	EvQuantumEnd:   "quantum-end",
	EvCrash:        "crash",
	EvStealRetry:   "steal-retry",
	EvTokenRegen:   "token-regen",
	EvMsgDrop:      "msg-drop",
	EvJobArrive:    "job-arrive",
	EvJobAdmit:     "job-admit",
	EvJobReject:    "job-reject",
	EvJobDone:      "job-done",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// ParseEventKind maps a wire name back to its kind.
func ParseEventKind(s string) (EventKind, bool) {
	for k, name := range eventKindNames {
		if name == s {
			return EventKind(k), true
		}
	}
	return NumEventKinds, false
}

// Event is one protocol-level occurrence on one rank, packed to 24
// bytes (TestSnapshotHandsOverWithoutCopy in internal/obs pins the
// size): rank indices and tenant indices fit int32, and the field
// order leaves the only padding at the tail.
type Event struct {
	Time sim.Time
	// Arg is the kind-specific payload (see the kind constants).
	Arg int64
	// Peer is the other rank involved, or -1 when the event is local.
	Peer int32
	Kind EventKind
}

// TotalEvents returns the number of recorded protocol events across
// ranks (excluding dropped ones).
func (t *Trace) TotalEvents() int {
	n := 0
	for _, es := range t.Events {
		n += len(es)
	}
	return n
}

// TotalEventsDropped returns the number of events evicted from the
// bounded recording rings across ranks.
func (t *Trace) TotalEventsDropped() uint64 {
	var n uint64
	for _, d := range t.EventsDropped {
		n += d
	}
	return n
}

// EventCounts tallies the recorded events by kind. The slice is
// trimmed of trailing zero counts, so its length is one past the
// highest kind that actually occurred; runs predating a kind's
// introduction tally identically before and after the taxonomy grows.
func (t *Trace) EventCounts() []uint64 {
	var counts [NumEventKinds]uint64
	for _, es := range t.Events {
		for _, e := range es {
			if e.Kind < NumEventKinds {
				counts[e.Kind]++
			}
		}
	}
	n := len(counts)
	for n > 0 && counts[n-1] == 0 {
		n--
	}
	return counts[:n:n]
}
