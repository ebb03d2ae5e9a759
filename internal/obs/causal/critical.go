package causal

import (
	"slices"

	"distws/internal/sim"
	"distws/internal/trace"
)

// SegmentKind classifies one span of the critical path.
type SegmentKind uint8

const (
	// SegCompute: a rank was expanding nodes.
	SegCompute SegmentKind = iota
	// SegStealRTT: the steal request whose answer carried the critical
	// work was in flight (request send to victim answer, including
	// mailbox queueing at the victim).
	SegStealRTT
	// SegTransfer: the critical work itself was on the wire (victim's
	// work send to thief's receive).
	SegTransfer
	// SegToken: a termination token was in flight.
	SegToken
	// SegWait: residual spans the event log does not attribute —
	// startup before a rank's first event, token holding, and poll
	// granularity gaps.
	SegWait

	// NumSegmentKinds bounds the kind space for tables.
	NumSegmentKinds
)

var segmentKindNames = [NumSegmentKinds]string{
	SegCompute:  "compute",
	SegStealRTT: "steal-rtt",
	SegTransfer: "transfer",
	SegToken:    "token",
	SegWait:     "wait",
}

func (k SegmentKind) String() string {
	if int(k) < len(segmentKindNames) {
		return segmentKindNames[k]
	}
	return "unknown"
}

// Segment is one span of the critical path, attributed to a rank (for
// cross-rank spans: the receiving side's rank for transfers and
// tokens, the thief for steal round trips).
type Segment struct {
	Kind       SegmentKind
	Rank       int
	Start, End sim.Time
}

// Duration returns the segment length.
func (s Segment) Duration() sim.Duration { return s.End.Sub(s.Start) }

// Path is the extracted critical path: a contiguous chain of segments
// covering [0, makespan] exactly, so the kind totals decompose the
// makespan (sum(ByKind) == Total == trace End).
type Path struct {
	Segments []Segment
	ByKind   [NumSegmentKinds]sim.Duration
	Total    sim.Duration
}

// CriticalPath walks the causal graph backward from termination
// detection (rank 0 at the trace end) and returns the chain of
// segments that determined the makespan.
//
// The walk repeatedly explains "why did rank r only reach this point
// at time t": the latest causally relevant event at r before t is
// either a quantum boundary (the rank was computing), a matched work
// receive (the rank was fed by a transfer — the walk crosses to the
// victim's quantum, or to the thief's request when the victim answered
// at delivery), or a matched token receive (the walk crosses to the
// token's sender). Gaps between those anchors become SegWait. Each
// step extends the covered interval contiguously downward, which is
// what makes the decomposition identity exact by construction.
func CriticalPath(g *Graph) Path {
	var p Path
	tr := g.tr
	if tr == nil || tr.Ranks() == 0 || tr.End == 0 {
		return p
	}
	p.Total = sim.Duration(tr.End)
	if tr.Events == nil {
		p.Segments = []Segment{{Kind: SegWait, Rank: 0, Start: 0, End: tr.End}}
		p.ByKind[SegWait] = p.Total
		return p
	}

	// The walk emits latest-first, so a new span abuts the previously
	// emitted one at its Start; coalesce same-kind same-rank neighbours
	// (e.g. back-to-back compute quanta) into one segment.
	emit := func(kind SegmentKind, rank int, start, end sim.Time) {
		if end <= start {
			return
		}
		if n := len(p.Segments); n > 0 {
			last := &p.Segments[n-1]
			if last.Kind == kind && last.Rank == rank && last.Start == end {
				last.Start = start
				return
			}
		}
		p.Segments = append(p.Segments, Segment{Kind: kind, Rank: rank, Start: start, End: end})
	}

	// Termination is detected at rank 0; events recorded after the
	// trace end (the terminate broadcast, in-flight tokens) are skipped
	// by the time guard in the anchor scan.
	r, t := 0, tr.End
	bound := len(tr.Events[0])
	// Every step consumes at least one event index somewhere, so twice
	// the log size bounds the walk; the cap is a backstop against a
	// malformed (hand-edited) trace, not a path the engine's own traces
	// can reach.
	for steps := 2*tr.TotalEvents() + 64; t > 0; steps-- {
		if steps <= 0 {
			emit(SegWait, r, 0, t)
			break
		}
		es := tr.Events[r]
		i := bound - 1
		ref := 0
		for ; i >= 0; i-- {
			if es[i].Time > t {
				continue
			}
			k := es[i].Kind
			if k == trace.EvQuantumStart || k == trace.EvQuantumEnd {
				break
			}
			if k.ReceivesWork() {
				if x, ok := lookupRef(g.recvAt[r], i); ok {
					ref = x
					break
				}
			}
			if k == trace.EvTokenRecv {
				if x, ok := lookupRef(g.tokenAt[r], i); ok {
					ref = x
					break
				}
			}
		}
		if i < 0 {
			// No causal history at this rank: startup (or a fully
			// evicted prefix).
			emit(SegWait, r, 0, t)
			break
		}
		e := es[i]
		switch k := e.Kind; {
		case k == trace.EvQuantumEnd:
			emit(SegWait, r, e.Time, t)
			j := i - 1
			for j >= 0 && es[j].Kind != trace.EvQuantumStart {
				j--
			}
			if j < 0 {
				emit(SegCompute, r, 0, e.Time)
				t = 0
				break
			}
			emit(SegCompute, r, es[j].Time, e.Time)
			t, bound = es[j].Time, j
		case k == trace.EvQuantumStart:
			// Inside a quantum (it was cancelled by termination, or the
			// walk landed mid-quantum under the one-sided protocol).
			emit(SegCompute, r, e.Time, t)
			t, bound = e.Time, i
		case k.ReceivesWork():
			x := g.Transfers[ref]
			emit(SegWait, r, x.Recv, t)
			emit(SegTransfer, r, x.Send, x.Recv)
			if x.ReqBound {
				// The victim answered at delivery: the makespan was
				// waiting on the request's round trip, charged to the
				// thief that posted it.
				emit(SegStealRTT, r, x.ReqSend, x.Send)
				t, bound = x.ReqSend, x.ReqSendIdx
			} else {
				// The victim answered at its own poll boundary: follow
				// the victim's compute.
				r, t, bound = x.Victim, x.Send, x.SendIdx
			}
		case k == trace.EvTokenRecv:
			h := g.TokenHops[ref]
			emit(SegWait, r, h.Recv, t)
			emit(SegToken, r, h.Send, h.Recv)
			r, t, bound = h.From, h.Send, h.SendIdx
		}
	}

	// The walk emitted latest-first; present the path forward in time.
	slices.Reverse(p.Segments)
	for _, s := range p.Segments {
		p.ByKind[s.Kind] += s.Duration()
	}
	return p
}
