package obs

import (
	"distws/internal/sim"
	"distws/internal/trace"
)

// pairStealsHeapMerge is PairSteals as it was before the radix sort: the
// same scan, then a binary-heap merge of the per-thief runs. With
// pairStealsStableSort it is the oracle PairSteals must match element
// for element (TestPairStealsMatchesStableSort).
//
// Each thief's transactions come out of the scan in send order (a
// rank's log is time-ordered, trace.Validate) and the thieves in rank
// order, so merging those runs by (Send, Thief) is the stable sort of
// the whole, in O(n log ranks).
func pairStealsHeapMerge(tr *trace.Trace) []StealPair {
	sends := 0
	for _, es := range tr.Events {
		for i := range es {
			if es[i].Kind == trace.EvStealSend {
				sends++
			}
		}
	}
	if sends == 0 {
		return nil
	}
	// runs holds every thief's transactions back to back; heads marks
	// where each non-empty run begins and ends.
	runs := make([]StealPair, 0, sends)
	var heads mergeHeap
	for rank, es := range tr.Events {
		start := len(runs)
		open := false // the run's last pair is this rank's pending transaction
		for i := range es {
			e := &es[i]
			switch e.Kind {
			case trace.EvStealSend:
				// A second send with one still open means the close event
				// was evicted from the ring; drop the orphan.
				if open {
					runs = runs[:len(runs)-1]
				}
				open = true
				runs = append(runs, StealPair{Thief: rank, Victim: int(e.Peer), Send: e.Time})
			case trace.EvWorkRecv, trace.EvNoWorkRecv, trace.EvStealAbort:
				if !open {
					continue
				}
				open = false
				p := &runs[len(runs)-1]
				p.End = e.Time
				switch e.Kind {
				case trace.EvWorkRecv:
					p.Outcome, p.Nodes = StealSuccess, e.Arg
				case trace.EvNoWorkRecv:
					p.Outcome = StealRefused
				default:
					p.Outcome = StealAborted
				}
			}
		}
		if open {
			runs = runs[:len(runs)-1] // still in flight at trace end
		}
		if len(runs) > start {
			heads = append(heads, runCursor{send: runs[start].Send, thief: rank, pos: start, end: len(runs)})
		}
	}
	switch len(heads) {
	case 0:
		return nil
	case 1:
		return runs
	}

	out := make([]StealPair, 0, len(runs))
	for i := len(heads)/2 - 1; i >= 0; i-- {
		heads.down(i)
	}
	for len(heads) > 0 {
		c := &heads[0]
		out = append(out, runs[c.pos])
		if c.pos++; c.pos < c.end {
			c.send = runs[c.pos].Send
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		heads.down(0)
	}
	return out
}

// runCursor is the unmerged rest of one thief's run: runs[pos:end],
// keyed by its first pair.
type runCursor struct {
	send     sim.Time
	thief    int
	pos, end int
}

// mergeHeap is a binary min-heap of run cursors on (send, thief).
type mergeHeap []runCursor

func (h mergeHeap) less(i, j int) bool {
	if h[i].send != h[j].send {
		return h[i].send < h[j].send
	}
	return h[i].thief < h[j].thief
}

// down restores the heap below i after h[i] grew.
func (h mergeHeap) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h.less(r, m) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
