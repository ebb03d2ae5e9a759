package causal

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"distws/internal/core"
	"distws/internal/fault"
	"distws/internal/rng"
	"distws/internal/serve"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/trace"
	"distws/internal/uts"
	"distws/internal/victim"
)

// mapBuild is Build as it was before the flat peer lists and the
// backward request scan: four peer-grouped map indexes, a map from
// every steal send's request id to its log position, sort.SliceStable.
// It is the oracle Build must match field for field
// (TestBuildMatchesMapBuild).
func mapBuild(tr *trace.Trace) *Graph {
	n := tr.Ranks()
	g := &Graph{
		tr:      tr,
		Quanta:  make([][]Quantum, n),
		recvAt:  make([][]idxRef, n),
		tokenAt: make([][]idxRef, n),
	}
	if tr.Events == nil {
		return g
	}

	// Index each rank's log once: send/recv event positions grouped by
	// peer, the steal-send position of every request id, and the
	// quantum spans.
	workSend := make([]map[int][]int, n)
	workRecv := make([]map[int][]int, n)
	tokSend := make([]map[int][]int, n)
	tokRecv := make([]map[int][]int, n)
	stealSendAt := make([]map[uint64]int, n)
	for r, es := range tr.Events {
		qstart := -1
		for i, e := range es {
			switch e.Kind {
			case trace.EvWorkSend:
				workSend[r] = addPeerIdx(workSend[r], int(e.Peer), i)
			case trace.EvWorkRecv, trace.EvWorkLate:
				workRecv[r] = addPeerIdx(workRecv[r], int(e.Peer), i)
			case trace.EvTokenSend:
				tokSend[r] = addPeerIdx(tokSend[r], int(e.Peer), i)
			case trace.EvTokenRecv:
				tokRecv[r] = addPeerIdx(tokRecv[r], int(e.Peer), i)
			case trace.EvStealSend:
				if stealSendAt[r] == nil {
					stealSendAt[r] = make(map[uint64]int)
				}
				stealSendAt[r][uint64(e.Arg)] = i
			case trace.EvQuantumStart:
				qstart = i
			case trace.EvQuantumEnd:
				if qstart >= 0 {
					g.Quanta[r] = append(g.Quanta[r], Quantum{Start: es[qstart].Time, End: e.Time})
				}
				qstart = -1
			}
		}
	}

	// Match transfers per ordered (victim, thief) pair and token hops
	// per ring edge.
	mapMatchFIFO(tr, workSend, workRecv, func(victim, thief, si, ri int, se, re trace.Event) {
		g.Transfers = append(g.Transfers, Transfer{
			Victim: victim, Thief: thief,
			Send: se.Time, Recv: re.Time,
			SendIdx: si, RecvIdx: ri,
			Nodes:      re.Arg,
			ReqSendIdx: -1, Parent: -1,
		})
	})
	mapMatchFIFO(tr, tokSend, tokRecv, func(from, to, si, ri int, se, re trace.Event) {
		g.TokenHops = append(g.TokenHops, TokenHop{
			From: from, To: to,
			Send: se.Time, Recv: re.Time,
			SendIdx: si, RecvIdx: ri,
		})
	})

	// Recover each transfer's steal request and its binding, then
	// order transfers so every lineage parent precedes its children:
	// a parent's Recv is at or before its child's Send at the shared
	// rank, and flights are strictly positive, so sorting by Send time
	// gives parents strictly smaller keys.
	for i := range g.Transfers {
		g.mapResolveRequest(&g.Transfers[i], stealSendAt)
	}
	sort.SliceStable(g.Transfers, func(a, b int) bool {
		ta, tb := &g.Transfers[a], &g.Transfers[b]
		if ta.Send != tb.Send {
			return ta.Send < tb.Send
		}
		if ta.Victim != tb.Victim {
			return ta.Victim < tb.Victim
		}
		return ta.SendIdx < tb.SendIdx
	})
	sort.SliceStable(g.TokenHops, func(a, b int) bool {
		ha, hb := &g.TokenHops[a], &g.TokenHops[b]
		if ha.Send != hb.Send {
			return ha.Send < hb.Send
		}
		if ha.From != hb.From {
			return ha.From < hb.From
		}
		return ha.SendIdx < hb.SendIdx
	})

	// Lookup tables, then lineage. recvAt must be sorted by event
	// index; per rank the transfer order above already ascends in
	// RecvIdx-time, but not necessarily in index, so sort explicitly.
	for i, t := range g.Transfers {
		g.recvAt[t.Thief] = append(g.recvAt[t.Thief], idxRef{idx: t.RecvIdx, ref: i})
	}
	for i, h := range g.TokenHops {
		g.tokenAt[h.To] = append(g.tokenAt[h.To], idxRef{idx: h.RecvIdx, ref: i})
	}
	for r := range g.recvAt {
		mapSortRefs(g.recvAt[r])
		mapSortRefs(g.tokenAt[r])
	}
	for i := range g.Transfers {
		t := &g.Transfers[i]
		if ref, ok := refBefore(g.recvAt[t.Victim], t.SendIdx); ok {
			t.Parent = ref
			t.Depth = g.Transfers[ref].Depth + 1
		} else {
			t.Depth = 1
		}
	}
	return g
}

// mapMatchFIFO pairs the send and receive events of every ordered
// (from, to) pair in FIFO order and calls emit for each matched pair,
// iterating receivers then sorted senders so the build is
// deterministic.
func mapMatchFIFO(tr *trace.Trace, send, recv []map[int][]int, emit func(from, to, si, ri int, se, re trace.Event)) {
	for to := range recv {
		for _, from := range sortedPeers(recv[to]) {
			sends, recvs := send[from][to], recv[to][from]
			k := min(len(sends), len(recvs))
			// Tail-align: evictions drop oldest events first, so the
			// surviving lists share a common suffix.
			so, ro := len(sends)-k, len(recvs)-k
			for i := 0; i < k; i++ {
				si, ri := sends[so+i], recvs[ro+i]
				se, re := tr.Events[from][si], tr.Events[to][ri]
				if se.Time >= re.Time {
					continue // misalignment; flight is >= 1ns
				}
				emit(from, to, si, ri, se, re)
			}
		}
	}
}

// mapResolveRequest recovers the steal request a transfer answered: the
// victim records EvStealRecv immediately before its EvWorkSend, and
// the thief's EvStealSend carries the same request id.
func (g *Graph) mapResolveRequest(t *Transfer, stealSendAt []map[uint64]int) {
	ev := g.tr.Events[t.Victim]
	if t.SendIdx == 0 {
		return
	}
	pe := ev[t.SendIdx-1]
	if pe.Kind != trace.EvStealRecv || int(pe.Peer) != t.Thief {
		return // request observation evicted from the victim's ring
	}
	t.ReqID = uint64(pe.Arg)
	// The victim answered at a poll boundary iff an EvQuantumEnd sits
	// at the same timestamp earlier in its log (quantum end is
	// recorded before the poll that handles the request). Otherwise
	// the answer happened at delivery: the victim was idle, or the
	// one-sided protocol served the request mid-quantum.
	reqBound := true
	for j := t.SendIdx - 2; j >= 0 && ev[j].Time == pe.Time; j-- {
		if ev[j].Kind == trace.EvQuantumEnd {
			reqBound = false
			break
		}
	}
	if si, ok := stealSendAt[t.Thief][t.ReqID]; ok {
		se := g.tr.Events[t.Thief][si]
		if se.Kind == trace.EvStealSend && int(se.Peer) == t.Victim && se.Time < t.Send {
			t.ReqSend = se.Time
			t.ReqSendIdx = si
		}
	}
	t.ReqBound = reqBound && t.ReqSendIdx >= 0
}

// addPeerIdx appends an event index to the peer-grouped map, creating
// the map on first use.
func addPeerIdx(m map[int][]int, peer, idx int) map[int][]int {
	if peer < 0 {
		return m
	}
	if m == nil {
		m = make(map[int][]int)
	}
	m[peer] = append(m[peer], idx)
	return m
}

// sortedPeers returns the map's keys in ascending order, so matching
// never depends on map iteration order.
func sortedPeers(m map[int][]int) []int {
	if len(m) == 0 {
		return nil
	}
	peers := make([]int, 0, len(m))
	for p := range m {
		peers = append(peers, p)
	}
	sort.Ints(peers)
	return peers
}

func mapSortRefs(list []idxRef) {
	sort.Slice(list, func(a, b int) bool { return list[a].idx < list[b].idx })
}

// diffBuild runs cfg with the event log on and requires Build and
// CriticalPath to equal the map-based oracle's, unexported lookup
// tables included.
func diffBuild(t *testing.T, name string, cfg core.Config) *Graph {
	t.Helper()
	cfg.CollectEvents = true
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, want := Build(res.Trace), mapBuild(res.Trace)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Build differs from the map-based build\n got %d transfers, %d token hops\nwant %d transfers, %d token hops",
			name, len(got.Transfers), len(got.TokenHops), len(want.Transfers), len(want.TokenHops))
	}
	if gp, wp := CriticalPath(got), CriticalPath(want); !reflect.DeepEqual(gp, wp) {
		t.Fatalf("%s: CriticalPath differs over equal graphs", name)
	}
	return got
}

func TestBuildMatchesMapBuild(t *testing.T) {
	tiny, t3 := uts.MustPreset("H-TINY").Params, uts.MustPreset("T3").Params
	fig9 := core.Config{Tree: tiny, Ranks: 128, Placement: topology.OnePerNode,
		Selector: victim.NewDistanceSkewed, Steal: core.StealOne, Seed: 9}
	cases := map[string]core.Config{
		"fig9": fig9,
		"one-sided": {Tree: tiny, Ranks: 64, ChunkSize: 4, Selector: victim.NewUniformRandom,
			Steal: core.StealHalf, Protocol: core.OneSided, PollInterval: 50, Seed: 13},
		"aborting": {Tree: uts.MustPreset("T3S").Params, Ranks: 32, ChunkSize: 4, Selector: victim.NewUniformRandom,
			Steal: core.StealHalf, StealTimeout: 5 * sim.Microsecond, Seed: 17},
		"crash+dup": {Tree: t3, Ranks: 16, Seed: 7, Faults: &fault.Plan{
			Seed:    4,
			Crashes: []fault.Crash{{Rank: 2, At: sim.Time(60 * sim.Microsecond)}, {Rank: 9, At: sim.Time(90 * sim.Microsecond)}},
			Links:   []fault.LinkFault{{From: fault.Wildcard, To: fault.Wildcard, Dup: 0.1}},
		}},
		"serving": {Ranks: 8, Seed: 7, Serve: &serve.Spec{
			Horizon: 50 * sim.Millisecond,
			Tenants: []serve.Tenant{{
				Name:    "gold",
				Arrival: serve.ArrivalSpec{Process: serve.ProcPoisson, Mean: sim.Millisecond},
				Work: serve.Workload{Kind: serve.WorkUTS, Tree: uts.Params{
					Type: uts.Binomial, B0: 20, NonLeafBF: 2, NonLeafProb: 0.45, RootSeed: 31, Hash: uts.HashFast}},
			}},
		}},
		"shards=4": {Tree: t3, Ranks: 16, ChunkSize: 4, Selector: victim.NewDistanceSkewed, Steal: core.StealHalf, Shards: 4, Seed: 5},
	}
	for name, cfg := range cases {
		if g := diffBuild(t, name, cfg); len(g.Transfers) == 0 || name != "serving" && len(g.TokenHops) == 0 {
			t.Errorf("%s: %d transfers, %d token hops; the case must exercise both matchers", name, len(g.Transfers), len(g.TokenHops))
		}
	}

	// Small rings evict: the two sides of a pair lose different prefixes
	// (tail alignment), requests outlive their sends (ReqSendIdx -1,
	// ReqBound false) and answers their EvStealRecv. The steal flood of
	// Fig. 9's termination tail leaves the small rings little but token
	// hops; the one-sided aborting run keeps transfers as well.
	evicting := core.Config{Tree: tiny, Ranks: 64, ChunkSize: 2, Selector: victim.NewUniformRandom,
		Steal: core.StealHalf, Protocol: core.OneSided, StealTimeout: 3 * sim.Microsecond, Seed: 9}
	transfers, unresolved := 0, 0
	for _, buf := range []int{16, 64, 512} {
		fig9.EventBuffer, evicting.EventBuffer = buf, buf
		diffBuild(t, fmt.Sprintf("fig9/eventbuf=%d", buf), fig9)
		g := diffBuild(t, fmt.Sprintf("evicting/eventbuf=%d", buf), evicting)
		if g.tr.TotalEventsDropped() == 0 {
			t.Errorf("eventbuf=%d: nothing evicted", buf)
		}
		transfers += len(g.Transfers)
		for _, tr := range g.Transfers {
			if tr.ReqSendIdx < 0 {
				unresolved++
			}
		}
	}
	if unresolved == 0 || unresolved == transfers {
		t.Errorf("%d of %d transfers under eviction lost their request; the cases must cover both outcomes", unresolved, transfers)
	}

	r := rng.New(23)
	selectors := []victim.Factory{victim.NewRoundRobin, victim.NewUniformRandom, victim.NewDistanceSkewed}
	for trial := 0; trial < 200; trial++ {
		cfg := core.Config{
			Tree:        t3,
			Ranks:       2 + r.Intn(95),
			Selector:    selectors[r.Intn(len(selectors))],
			Protocol:    core.Protocol(r.Intn(2)),
			Steal:       core.StealPolicy(r.Intn(2)),
			ChunkSize:   1 + r.Intn(8),
			EventBuffer: []int{0, 8, 32, 128}[r.Intn(4)],
			Seed:        r.Uint64(),
		}
		if r.Intn(4) == 0 {
			cfg.StealTimeout = sim.Duration(2+r.Intn(8)) * sim.Microsecond
		}
		diffBuild(t, fmt.Sprintf("random %d (%d ranks, eventbuf %d, seed %#x)", trial, cfg.Ranks, cfg.EventBuffer, cfg.Seed), cfg)
	}
}

// stormTrace is the event log of a 1024-rank steal storm: every rank
// opens with one successful steal from its neighbour, then is refused
// 200 times by victims that rotate, and the token goes round the ring
// three times — ~1 000 transfers to match among ~205 000 steal sends,
// the proportions of the repository benchmark's observed-1k run.
func stormTrace() *trace.Trace {
	const n, refusals = 1024, 200
	type timed struct {
		rank int
		ev   trace.Event
	}
	var all []timed
	add := func(rank int, t sim.Time, k trace.EventKind, peer int, arg int64) {
		all = append(all, timed{rank, trace.Event{Time: t, Kind: k, Peer: int32(peer), Arg: arg}})
	}
	for r := 0; r < n; r++ {
		for i := 0; i <= refusals; i++ {
			at, v, id := sim.Time(i*1000+r%7), (r+i+1)%n, int64(i+1)
			add(r, at, trace.EvStealSend, v, id)
			add(v, at+300, trace.EvStealRecv, r, id)
			if i == 0 {
				add(v, at+300, trace.EvWorkSend, r, 4)
				add(r, at+600, trace.EvWorkRecv, v, 4)
			} else {
				add(v, at+300, trace.EvNoWorkSend, r, id)
				add(r, at+600, trace.EvNoWorkRecv, v, id)
			}
		}
	}
	for hop := 0; hop < 3*n; hop++ {
		at := sim.Time((refusals+2)*1000 + hop*10)
		add(hop%n, at, trace.EvTokenSend, (hop+1)%n, 0)
		add((hop+1)%n, at+5, trace.EvTokenRecv, hop%n, 0)
	}
	// A stable sort on time alone keeps what one rank logged in one
	// nanosecond in the order it was added.
	slices.SortStableFunc(all, func(a, b timed) int { return cmp.Compare(a.ev.Time, b.ev.Time) })
	tr := &trace.Trace{End: all[len(all)-1].ev.Time, Transitions: make([][]trace.Transition, n), Events: make([][]trace.Event, n)}
	for _, e := range all {
		tr.Events[e.rank] = append(tr.Events[e.rank], e.ev)
	}
	return tr
}

// BenchmarkCausalBuild prices the causal graph of the steal storm.
func BenchmarkCausalBuild(b *testing.B) {
	tr := stormTrace()
	if g := Build(tr); len(g.Transfers) != 1024 || len(g.TokenHops) != 3*1024 || !reflect.DeepEqual(g, mapBuild(tr)) {
		b.Fatalf("%d transfers and %d token hops, want 1024 and 3072, equal to the map-based build's", len(g.Transfers), len(g.TokenHops))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(tr)
	}
}
