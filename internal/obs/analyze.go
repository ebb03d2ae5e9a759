package obs

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"distws/internal/sim"
	"distws/internal/trace"
)

// StealOutcome classifies one reconstructed steal transaction.
type StealOutcome uint8

const (
	// StealSuccess: the thief received work.
	StealSuccess StealOutcome = iota
	// StealRefused: the victim answered no-work.
	StealRefused
	// StealAborted: the thief gave up before any reply arrived.
	StealAborted
)

func (o StealOutcome) String() string {
	switch o {
	case StealSuccess:
		return "success"
	case StealRefused:
		return "refused"
	default:
		return "aborted"
	}
}

// StealPair is one steal transaction reconstructed from a trace's
// protocol events: the span from the thief posting the request to it
// learning the outcome (work, refusal, or its own abort timer).
type StealPair struct {
	Thief, Victim int
	Send, End     sim.Time
	Outcome       StealOutcome
	// Nodes transferred; nonzero only on success.
	Nodes int64
}

// Latency returns the steal round trip as observed by the thief.
func (p StealPair) Latency() sim.Duration { return p.End.Sub(p.Send) }

// countSends counts the trace's steal requests: the most transactions
// scanSteals can close, so the size of a buffer that holds them all.
func countSends(tr *trace.Trace) int {
	sends := 0
	for _, es := range tr.Events {
		for i := range es {
			if es[i].Kind == trace.EvStealSend {
				sends++
			}
		}
	}
	return sends
}

// scanSteals is the one steal-pairing rule. Each rank has at most one
// outstanding request (the protocol is stop-and-wait), so pairing is a
// per-rank scan: a steal-send opens a transaction, the next
// work/no-work delivery or abort closes it, and closed is called with
// it. Work that answers no outstanding request (EvWorkLate) closes
// nothing, so the transactions are the round trips the engine counts.
// Unmatched events — ring evictions, a send still open at trace end —
// are skipped. Transactions come thief by thief, each thief's in log
// order.
func scanSteals(tr *trace.Trace, closed func(p StealPair)) {
	for rank, es := range tr.Events {
		var p StealPair
		open := false // p is this rank's pending transaction
		for i := range es {
			e := &es[i]
			switch e.Kind {
			case trace.EvStealSend:
				// A second send with one still open means the close event
				// was evicted from the ring; the orphan is overwritten.
				p, open = StealPair{Thief: rank, Victim: int(e.Peer), Send: e.Time}, true
			case trace.EvWorkRecv, trace.EvNoWorkRecv, trace.EvStealAbort:
				if !open {
					continue
				}
				open = false
				p.End = e.Time
				switch e.Kind {
				case trace.EvWorkRecv:
					p.Outcome, p.Nodes = StealSuccess, e.Arg
				case trace.EvNoWorkRecv:
					p.Outcome = StealRefused
				default:
					p.Outcome = StealAborted
				}
				closed(p)
			}
		}
	}
}

// PairSteals reconstructs the steal transactions of the event log
// (scanSteals), ordered by send time (ties by thief rank, then log
// order); nil when there are none. Only the Chrome export needs them
// and their order, as flow arrows and flow ids: StealLatency and
// TerminationTail read the log without building pairs.
//
// The scan leaves the transactions in (thief, log) order, which is the
// tie-break, so a stable sort on the send time alone finishes the job.
func PairSteals(tr *trace.Trace) []StealPair {
	sends := countSends(tr)
	if sends == 0 {
		return nil
	}
	pairs := make([]StealPair, 0, sends)
	scanSteals(tr, func(p StealPair) { pairs = append(pairs, p) })
	if len(pairs) == 0 {
		return nil
	}
	return sortBySend(pairs)
}

// sortBySend stably sorts pairs by send time: an LSD radix sort on
// Send's offset from the earliest send, 11 bits a pass and as many
// passes as the largest offset has bits — three for a run of a few
// virtual milliseconds. It returns the sorted slice, which is pairs or
// the scratch copy the passes alternate with.
func sortBySend(pairs []StealPair) []StealPair {
	lo, hi, sorted := pairs[0].Send, pairs[0].Send, true
	for i := 1; i < len(pairs); i++ {
		s := pairs[i].Send
		sorted = sorted && s >= pairs[i-1].Send
		lo, hi = min(lo, s), max(hi, s)
	}
	if sorted {
		return pairs // one thief, or nothing out of place
	}
	const digitBits, digitMask = 11, 1<<11 - 1
	var next [digitMask + 1]int
	scratch := make([]StealPair, len(pairs))
	for shift := 0; uint64(hi-lo)>>shift != 0; shift += digitBits {
		clear(next[:])
		for i := range pairs {
			next[uint64(pairs[i].Send-lo)>>shift&digitMask]++
		}
		at := 0
		for d, n := range next {
			next[d], at = at, at+n
		}
		for i := range pairs {
			d := uint64(pairs[i].Send-lo) >> shift & digitMask
			scratch[next[d]] = pairs[i]
			next[d]++
		}
		pairs, scratch = scratch, pairs
	}
	return pairs
}

// StealLatencyStats summarizes steal round-trip latencies, the
// distribution Gast et al.'s latency analysis needs (arXiv:1805.00857)
// rather than the aggregate search-time means the paper tabulates.
type StealLatencyStats struct {
	Count                     int
	Success, Refused, Aborted int
	Mean, P50, P95, P99, Max  sim.Duration
	// SuccessP50 isolates the successful round trips: these include
	// the chunk transfer, so they run longer than refusals.
	SuccessP50 sim.Duration
	// NodesMoved totals the nodes carried by successful steals.
	NodesMoved int64
}

// StealLatency computes exact latency percentiles over the trace's
// steal transactions. None of its figures depends on the order of
// the transactions, so it reads them straight from the log scan
// (scanSteals) into one buffer of latencies: successes from the front,
// the rest from the back.
func StealLatency(tr *trace.Trace) StealLatencyStats {
	var st StealLatencyStats
	sends := countSends(tr)
	lat := make([]sim.Duration, sends)
	rest := sends // lat[:st.Success] are the successes, lat[rest:] the others
	var sum sim.Duration
	scanSteals(tr, func(p StealPair) {
		d := p.Latency()
		sum += d
		if d > st.Max {
			st.Max = d
		}
		switch p.Outcome {
		case StealSuccess:
			lat[st.Success] = d
			st.Success++
			st.NodesMoved += p.Nodes
			return
		case StealRefused:
			st.Refused++
		case StealAborted:
			st.Aborted++
		}
		rest--
		lat[rest] = d
	})
	st.Count = st.Success + sends - rest
	if st.Count == 0 {
		return st
	}
	if ok := lat[:st.Success]; len(ok) > 0 {
		slices.Sort(ok)
		st.SuccessP50 = quantileDur(ok, 0.50)
	}
	copy(lat[st.Success:], lat[rest:])
	lat = lat[:st.Count]
	slices.Sort(lat)
	st.Mean = sum / sim.Duration(st.Count)
	st.P50 = quantileDur(lat, 0.50)
	st.P95 = quantileDur(lat, 0.95)
	st.P99 = quantileDur(lat, 0.99)
	return st
}

// quantileDur returns the q-quantile of sorted durations as the element
// at index ⌊q·(n−1)⌋: the lower neighbour of the linearly interpolated
// quantile, not nearest-rank (at n = 10 its p95 is the 9th value, where
// nearest-rank's ⌈q·n⌉ is the 10th).
func quantileDur(sorted []sim.Duration, q float64) sim.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// Traffic reconstructs the rank×rank protocol-message matrix from the
// trace's send events ([from][to] counts): the view that shows which
// links carry the failed-steal floods of the paper's Figure 7. Nil
// when the trace has no event log.
func Traffic(tr *trace.Trace) [][]uint64 {
	if tr.Events == nil {
		return nil
	}
	n := tr.Ranks()
	m := make([][]uint64, n)
	for i := range m {
		m[i] = make([]uint64, n)
	}
	for rank, es := range tr.Events {
		for _, e := range es {
			switch e.Kind {
			case trace.EvStealSend, trace.EvWorkSend, trace.EvNoWorkSend, trace.EvTokenSend:
				if e.Peer >= 0 && int(e.Peer) < n {
					m[rank][e.Peer]++
				}
			}
		}
	}
	return m
}

// heatGlyphs maps log-scaled intensity to ASCII, dark to bright.
const heatGlyphs = " .:-=+*#%@"

// RenderHeatmap renders m as an ASCII heatmap of at most size×size
// tiles. When the matrix outgrows the terminal, ranks aggregate into
// tiles; glyph intensity is log-scaled so one hot link cannot wash out
// the rest of the picture.
func RenderHeatmap(m [][]uint64, size int) string {
	n := len(m)
	if n == 0 {
		return "(no traffic)\n"
	}
	if size < 1 {
		size = 1
	}
	tiles := size
	if tiles > n {
		tiles = n
	}
	agg := make([][]uint64, tiles)
	for i := range agg {
		agg[i] = make([]uint64, tiles)
	}
	var max uint64
	for i := 0; i < n; i++ {
		for j, v := range m[i] {
			ti, tj := i*tiles/n, j*tiles/n
			agg[ti][tj] += v
			if agg[ti][tj] > max {
				max = agg[ti][tj]
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "traffic matrix: %d ranks as %dx%d tiles, rows=sender, max tile %d msgs\n", n, tiles, tiles, max)
	logMax := bits.Len64(max)
	for i := 0; i < tiles; i++ {
		b.WriteString("  |")
		for j := 0; j < tiles; j++ {
			v := agg[i][j]
			var g byte = ' '
			if v > 0 {
				idx := 1
				if logMax > 0 {
					idx = 1 + int(float64(bits.Len64(v))/float64(logMax)*float64(len(heatGlyphs)-2)+0.5)
				}
				if idx >= len(heatGlyphs) {
					idx = len(heatGlyphs) - 1
				}
				g = heatGlyphs[idx]
			}
			b.WriteByte(g)
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// TailStats breaks down the termination tail: everything after the
// last work transfer, when remaining steal traffic is pure
// overhead and the token ring winds the run down. At scale this tail
// is where the paper's 8192-rank makespans go.
type TailStats struct {
	// LastTransfer is when stolen work last reached a thief, as the
	// answer to its request or late.
	LastTransfer sim.Time
	// Duration is End - LastTransfer; Fraction is Duration/End.
	Duration sim.Duration
	Fraction float64
	// FailedInTail counts steals that ended (refused or aborted)
	// during the tail.
	FailedInTail int
	// TokenHopsInTail and TokenHopsTotal count termination-token
	// deliveries in the tail and over the whole run.
	TokenHopsInTail int
	TokenHopsTotal  int
}

// TerminationTail computes the tail breakdown from the trace's event
// log: one scan finds the last work receipt, a scan of the steal
// transactions (scanSteals) counts the failures at or after it.
func TerminationTail(tr *trace.Trace) TailStats {
	var st TailStats
	for _, es := range tr.Events {
		for _, e := range es {
			if e.Kind.ReceivesWork() {
				st.LastTransfer = max(st.LastTransfer, e.Time)
			}
		}
	}
	scanSteals(tr, func(p StealPair) {
		if p.Outcome != StealSuccess && p.End >= st.LastTransfer {
			st.FailedInTail++
		}
	})
	for _, es := range tr.Events {
		for _, e := range es {
			if e.Kind == trace.EvTokenRecv {
				st.TokenHopsTotal++
				if e.Time >= st.LastTransfer {
					st.TokenHopsInTail++
				}
			}
		}
	}
	if tr.End > st.LastTransfer {
		st.Duration = tr.End.Sub(st.LastTransfer)
	}
	if tr.End > 0 {
		st.Fraction = float64(st.Duration) / float64(tr.End)
	}
	return st
}
