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
// the steal scan can close, so the size of a buffer that holds them all.
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

// StealScan is the one steal-pairing rule, as a cursor over one rank's
// event log. Each rank has at most one outstanding request (the
// protocol is stop-and-wait), so pairing is a per-rank scan: a
// steal-send opens a transaction, the next work/no-work delivery or
// abort closes it, and Next yields it. Work that answers no
// outstanding request (EvWorkLate) closes nothing, so the transactions
// are the round trips the engine counts. Unmatched events — ring
// evictions, a send still open at trace end — are skipped. The
// transactions come in log order, which is send order and close order.
type StealScan struct {
	es    []trace.Event
	next  int // index in es of the first event Next has not read
	thief int
}

// ScanSteals returns the cursor over rank's steal transactions in tr;
// a trace without an event log has none.
func ScanSteals(tr *trace.Trace, rank int) StealScan {
	s := StealScan{thief: rank}
	if rank < len(tr.Events) {
		s.es = tr.Events[rank]
	}
	return s
}

// Next returns the rank's next closed transaction, or false once the
// log holds no more.
func (s *StealScan) Next() (StealPair, bool) {
	es := s.es
	send := -1 // index in es of the rank's pending request
	for i := s.next; i < len(es); i++ {
		switch k := es[i].Kind; k {
		case trace.EvStealSend:
			// A second send with one still open means the close event
			// was evicted from the ring; the orphan is overwritten.
			send = i
		case trace.EvWorkRecv, trace.EvNoWorkRecv, trace.EvStealAbort:
			if send < 0 {
				continue
			}
			s.next = i + 1
			outcome, nodes := StealAborted, int64(0)
			switch k {
			case trace.EvWorkRecv:
				outcome, nodes = StealSuccess, es[i].Arg
			case trace.EvNoWorkRecv:
				outcome = StealRefused
			}
			return StealPair{
				Thief: s.thief, Victim: int(es[send].Peer), Send: es[send].Time,
				End: es[i].Time, Outcome: outcome, Nodes: nodes,
			}, true
		}
	}
	s.next = len(es)
	return StealPair{}, false
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
// the transactions, so it reads them thief by thief from the steal
// scan into one buffer of latencies: successes from the front, the
// rest from the back.
func StealLatency(tr *trace.Trace) StealLatencyStats {
	var st StealLatencyStats
	sends := countSends(tr)
	lat := make([]sim.Duration, sends)
	rest := sends // lat[:st.Success] are the successes, lat[rest:] the others
	var sum sim.Duration
	for rank := range tr.Events {
		scan := ScanSteals(tr, rank)
		for p, ok := scan.Next(); ok; p, ok = scan.Next() {
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
				continue
			case StealRefused:
				st.Refused++
			case StealAborted:
				st.Aborted++
			}
			rest--
			lat[rest] = d
		}
	}
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
// log: one scan finds the last work receipt, then rank by rank the
// steal scan counts the failed transactions that ended at or after it
// and a second look at the rank's log, still in cache, the token hops.
func TerminationTail(tr *trace.Trace) TailStats {
	var st TailStats
	for _, es := range tr.Events {
		for _, e := range es {
			if e.Kind.ReceivesWork() {
				st.LastTransfer = max(st.LastTransfer, e.Time)
			}
		}
	}
	for rank, es := range tr.Events {
		scan := ScanSteals(tr, rank)
		for p, ok := scan.Next(); ok; p, ok = scan.Next() {
			if p.Outcome != StealSuccess && p.End >= st.LastTransfer {
				st.FailedInTail++
			}
		}
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
