package causal

import (
	"distws/internal/obs"
	"distws/internal/sim"
	"distws/internal/trace"
)

// RankBlame partitions one rank's run time: the busy span plus four
// idle categories that together cover [0, makespan] exactly.
type RankBlame struct {
	// Busy is the time the rank held work (active phases).
	Busy sim.Duration
	// Startup is the initial idle span before the rank's first work —
	// the paper's starting-latency SL(x) views this region per
	// occupancy level. A rank that never became active is all startup.
	Startup sim.Duration
	// Search is interior idle time spent hunting for a victim: posting
	// requests and absorbing refusals (the Figure 7 failed-steal flood
	// lands here), plus backoff pauses between attempts.
	Search sim.Duration
	// InFlight is interior idle time during the steal request whose
	// answer ended the idle interval: the work that re-activated the
	// rank was already on the wire (request flight, victim handling,
	// chunk transfer).
	InFlight sim.Duration
	// TermTail is the final idle span for ranks that never got work
	// again before termination: steal traffic in it is pure overhead
	// while the token ring winds down.
	TermTail sim.Duration
}

// Idle sums the four idle categories.
func (b RankBlame) Idle() sim.Duration {
	return b.Startup + b.Search + b.InFlight + b.TermTail
}

// Total is Busy plus Idle; by construction it equals the makespan.
func (b RankBlame) Total() sim.Duration { return b.Busy + b.Idle() }

func (b *RankBlame) add(o RankBlame) {
	b.Busy += o.Busy
	b.Startup += o.Startup
	b.Search += o.Search
	b.InFlight += o.InFlight
	b.TermTail += o.TermTail
}

// Blame is the idle-time blame attribution of a whole run.
type Blame struct {
	// End is the makespan the per-rank partitions cover.
	End sim.Time
	// PerRank holds each rank's partition; Total the sum over ranks,
	// so Total.Total() == Ranks * End exactly.
	PerRank []RankBlame
	Total   RankBlame
}

// Ranks returns the number of ranks attributed.
func (b *Blame) Ranks() int { return len(b.PerRank) }

// AttributeIdle partitions every rank's time on [0, End] into busy
// plus the four blame categories. The partition is exact: for each
// rank Busy + Startup + Search + InFlight + TermTail == End, by
// construction, and tests assert it on real runs.
//
// The activity transitions alone fix the busy/startup/tail structure.
// The rank's steal transactions (obs.ScanSteals) split an interior
// idle interval [x, end) only when a successful one closed exactly at
// end and was sent at or after x: its round trip end − Send is in
// flight, the rest search. Any other end — a late reply to an aborted
// request, a served job landing while a request is open, no event log
// — leaves the whole interval as search.
func AttributeIdle(tr *trace.Trace) *Blame {
	n := tr.Ranks()
	b := &Blame{End: tr.End, PerRank: make([]RankBlame, n)}
	for rank := 0; rank < n; rank++ {
		rb := &b.PerRank[rank]
		trs := tr.Transitions[rank]
		if len(trs) == 0 {
			// Never active: the whole run is startup (the rank was
			// searching, but it never saw its first work).
			rb.Startup = sim.Duration(tr.End)
			continue
		}
		// Ranks start idle implicitly; the first transition is Active
		// (trace.Validate), so [0, first) is the startup region.
		rb.Startup = trs[0].Time.Sub(0)
		scan := obs.ScanSteals(tr, rank)
		p, more := scan.Next()
		for i, x := range trs {
			end := tr.End
			if i+1 < len(trs) {
				end = trs[i+1].Time
			}
			if x.State == trace.Active {
				rb.Busy += end.Sub(x.Time)
				continue
			}
			if i == len(trs)-1 {
				// Idle at termination: the tail.
				rb.TermTail += tr.End.Sub(x.Time)
				continue
			}
			// Interior idle [x.Time, end): ended by work arriving.
			for more && p.End < end {
				p, more = scan.Next()
			}
			if more && p.End == end && p.Outcome == obs.StealSuccess && p.Send >= x.Time {
				rb.Search += p.Send.Sub(x.Time)
				rb.InFlight += end.Sub(p.Send)
			} else {
				rb.Search += end.Sub(x.Time)
			}
		}
	}
	for _, rb := range b.PerRank {
		b.Total.add(rb)
	}
	return b
}
