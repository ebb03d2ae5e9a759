package causal_test

import (
	"slices"
	"testing"

	"distws/internal/obs"
	"distws/internal/sim"
	"distws/internal/trace"
)

// stealPairs collects every rank's steal scan (obs.ScanSteals), thief
// by thief: the pair list the oracles below summarize.
func stealPairs(tr *trace.Trace) []obs.StealPair {
	var pairs []obs.StealPair
	for rank := range tr.Events {
		scan := obs.ScanSteals(tr, rank)
		for p, ok := scan.Next(); ok; p, ok = scan.Next() {
			pairs = append(pairs, p)
		}
	}
	return pairs
}

// stealLatencyOfPairs is obs.StealLatency as it was when it summarized
// a slice of every steal pair: the specification the scan must match.
func stealLatencyOfPairs(pairs []obs.StealPair) obs.StealLatencyStats {
	st := obs.StealLatencyStats{Count: len(pairs)}
	if len(pairs) == 0 {
		return st
	}
	lat := make([]sim.Duration, 0, len(pairs))
	var okLat []sim.Duration
	var sum sim.Duration
	for _, p := range pairs {
		d := p.Latency()
		lat = append(lat, d)
		sum += d
		if d > st.Max {
			st.Max = d
		}
		switch p.Outcome {
		case obs.StealSuccess:
			st.Success++
			st.NodesMoved += p.Nodes
			okLat = append(okLat, d)
		case obs.StealRefused:
			st.Refused++
		case obs.StealAborted:
			st.Aborted++
		}
	}
	slices.Sort(lat)
	st.Mean = sum / sim.Duration(len(lat))
	st.P50 = quantile(lat, 0.50)
	st.P95 = quantile(lat, 0.95)
	st.P99 = quantile(lat, 0.99)
	if len(okLat) > 0 {
		slices.Sort(okLat)
		st.SuccessP50 = quantile(okLat, 0.50)
	}
	return st
}

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []sim.Duration, q float64) sim.Duration {
	return sorted[int(q*float64(len(sorted)-1))]
}

// terminationTailOfPairs is obs.TerminationTail as it was when it read
// a slice of every steal pair, with the tail starting at the last work
// receipt of the log: the specification the log scans must match.
func terminationTailOfPairs(tr *trace.Trace, pairs []obs.StealPair) obs.TailStats {
	var st obs.TailStats
	for _, es := range tr.Events {
		for _, e := range es {
			if (e.Kind == trace.EvWorkRecv || e.Kind == trace.EvWorkLate) && e.Time > st.LastTransfer {
				st.LastTransfer = e.Time
			}
		}
	}
	for _, p := range pairs {
		if p.Outcome != obs.StealSuccess && p.End >= st.LastTransfer {
			st.FailedInTail++
		}
	}
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

// stealLogKinds are the kinds FuzzStealLatencyMatchesPairs draws from:
// the four the pairing reads (sends twice as often), the token hop the
// tail counts, and two kinds every scan must ignore: a late work reply
// and a request's receipt.
var stealLogKinds = []trace.EventKind{
	trace.EvStealSend, trace.EvStealSend, trace.EvWorkRecv, trace.EvNoWorkRecv,
	trace.EvStealAbort, trace.EvTokenRecv, trace.EvStealRecv, trace.EvWorkLate,
}

// stealLogStarts are the clocks a fuzzed log starts from: zero, past
// 2^40, just below 2^62 and at -2^62, where latencies and their sum
// can wrap.
var stealLogStarts = []sim.Time{0, 1<<40 + 5, 1<<62 - 1<<10, -1 << 62}

// FuzzStealLatencyMatchesPairs: obs.StealLatency and obs.TerminationTail
// read the event log directly and must equal, field for field, the
// pair-based oracles over the collected steal scan. Each three bytes of data are
// one event: its rank, its kind and its step on that rank's clock (a
// step of 0xF0 or more jumps 2^62). Seeds cover orphan sends (a close
// evicted), closes with nothing open, a late reply after an abort (a
// work-recv with nothing open, and a work-late with a newer request
// open), a
// refusal in the same nanosecond as the last transfer, a send open at
// trace end and times near ±2^62.
func FuzzStealLatencyMatchesPairs(f *testing.F) {
	const send, work, nowork, abort, token, late = 0, 2, 3, 4, 5, 7
	f.Add(uint8(0), uint8(0), []byte{0, send, 1, 0, work, 5, 0, send, 0, 0, nowork, 2, 0, token, 1})
	f.Add(uint8(1), uint8(0), []byte{0, send, 1, 0, send, 1, 0, nowork, 1, 1, work, 0, 1, send, 3})
	f.Add(uint8(0), uint8(1), []byte{0, send, 1, 0, abort, 9, 0, send, 0, 0, work, 4, 0, nowork, 2, 0, send, 1})
	f.Add(uint8(1), uint8(0), []byte{0, send, 0, 0, work, 2, 1, send, 0, 1, nowork, 2})
	f.Add(uint8(2), uint8(2), []byte{0, send, 0, 1, send, 1, 0, work, 3, 1, abort, 0, 2, send, 1, 2, nowork, 0xF0, 0, token, 0})
	f.Add(uint8(3), uint8(3), []byte{0, send, 0, 0, work, 0xFF, 1, send, 2, 1, nowork, 0xF1, 2, token, 0xF2})
	f.Add(uint8(0), uint8(0), []byte{0, send, 1, 0, abort, 1, 0, send, 1, 0, late, 1, 0, send, 1, 0, nowork, 1})
	f.Fuzz(func(t *testing.T, ranksIn, startIn uint8, data []byte) {
		ranks := 1 + int(ranksIn%8)
		events := make([][]trace.Event, ranks)
		clocks := make([]sim.Time, ranks)
		for i := range clocks {
			clocks[i] = stealLogStarts[int(startIn)%len(stealLogStarts)]
		}
		var end sim.Time
		for i := 0; i+2 < len(data); i += 3 {
			rank, step := int(data[i])%ranks, sim.Time(data[i+2]%3)
			if data[i+2] >= 0xF0 {
				step = 1 << 62
			}
			clocks[rank] += step
			events[rank] = append(events[rank], trace.Event{
				Time: clocks[rank], Kind: stealLogKinds[int(data[i+1])%len(stealLogKinds)],
				Peer: int32((rank + 1) % ranks), Arg: int64(i),
			})
			end = max(end, clocks[rank])
		}
		tr := &trace.Trace{End: end, Events: events}
		pairs := stealPairs(tr)
		if got, want := obs.StealLatency(tr), stealLatencyOfPairs(pairs); got != want {
			t.Fatalf("StealLatency = %+v, the pair oracle has %+v", got, want)
		}
		if got, want := obs.TerminationTail(tr), terminationTailOfPairs(tr, pairs); got != want {
			t.Fatalf("TerminationTail = %+v, the pair oracle has %+v", got, want)
		}
	})
}
