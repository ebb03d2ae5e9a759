// Package causal reconstructs the causal structure of a traced
// work-stealing run from its protocol event log: which steal fed which
// rank (work lineage), what chain of compute quanta, steal round
// trips, work transfers and termination-token hops the makespan is
// made of (the critical path), and which protocol mechanism each
// rank's idle time was waiting on (blame attribution).
//
// The paper's occupancy curves and SL(x)/EL(x) latencies measure the
// *symptoms* of bad victim selection; the analyses here expose the
// *mechanism*: the failed-steal flood of Figure 7 shows up directly as
// refused-steal search blame, and the long termination tails of the
// reference round-robin policy as termination-tail blame and token
// segments on the critical path.
//
// Everything in this package is a pure function of a *trace.Trace —
// no clocks, no randomness, no instrumentation of its own — so the
// same analysis runs offline in cmd/tracetool, inside cmd/experiments
// tables, and behind a /metrics endpoint via Publish. Build,
// CriticalPath and AttributeIdle are the algorithms; programs reach
// them through Analyze, which computes each view of a trace once.
//
// # Event matching
//
// The engine records sends on the sender and receives on the receiver,
// and the network preserves per-pair ordering (MPI non-overtaking), so
// transfers and token hops are matched per ordered (sender, receiver)
// pair in FIFO order. The per-rank recording rings are bounded and
// evict oldest-first, so the two sides may each be missing a prefix:
// matching aligns the *tails* of the two lists and drops any pair that
// violates send-before-receive. A victim's EvStealRecv is recorded
// immediately before its EvWorkSend/EvNoWorkSend answer (same
// timestamp, adjacent in the per-rank log), which recovers the request
// id of every transfer and, through the thief's EvStealSend, the full
// request round trip. That send is found by scanning the thief's log
// backward from its EvWorkRecv: the protocol is stop-and-wait, so it
// sits a few events back, and no index of the (far more numerous)
// refused requests is ever built.
package causal

import (
	"cmp"
	"slices"
	"sort"

	"distws/internal/sim"
	"distws/internal/trace"
)

// Transfer is one successful steal reconstructed from the event log:
// work moved from Victim to Thief.
type Transfer struct {
	Victim, Thief int
	// Send is the victim's EvWorkSend time, Recv the thief's
	// EvWorkRecv time; SendIdx/RecvIdx locate the two events in the
	// respective per-rank logs.
	Send, Recv       sim.Time
	SendIdx, RecvIdx int
	// Nodes is the loot size carried by the transfer.
	Nodes int64

	// ReqSend/ReqSendIdx locate the thief's EvStealSend that this
	// transfer answered; ReqSendIdx is -1 when the request could not
	// be recovered (ring eviction). ReqID is the request id.
	ReqSend    sim.Time
	ReqSendIdx int
	ReqID      uint64
	// ReqBound reports that the victim answered the request the moment
	// it was delivered (idle victim, or the one-sided protocol's NIC):
	// the transfer was waiting on the request's flight, so the critical
	// path runs through the thief's send. When false the victim
	// answered at a quantum boundary of its own compute (a two-sided
	// busy victim), and the path runs through the victim's quantum.
	ReqBound bool

	// Depth is the loot's migration depth: 1 for work stolen from a
	// rank still holding its original lineage, d+1 for work whose
	// victim had last been fed by a depth-d transfer. Parent indexes
	// the victim's feeding transfer in Graph.Transfers, -1 at depth 1.
	Depth  int
	Parent int
}

// TokenHop is one termination-token delivery on the ring.
type TokenHop struct {
	From, To         int
	Send, Recv       sim.Time
	SendIdx, RecvIdx int
}

// Quantum is one compute quantum: a span during which a rank expanded
// nodes without polling.
type Quantum struct {
	Start, End sim.Time
}

// idxRef maps a per-rank event index to an element of a Graph slice.
type idxRef struct{ idx, ref int }

// lookupRef finds the element for event index idx in a list sorted by
// idx.
func lookupRef(list []idxRef, idx int) (int, bool) {
	i := sort.Search(len(list), func(i int) bool { return list[i].idx >= idx })
	if i < len(list) && list[i].idx == idx {
		return list[i].ref, true
	}
	return 0, false
}

// refBefore finds the element with the largest event index < idx.
func refBefore(list []idxRef, idx int) (int, bool) {
	i := sort.Search(len(list), func(i int) bool { return list[i].idx >= idx })
	if i == 0 {
		return 0, false
	}
	return list[i-1].ref, true
}

// Graph is the reconstructed causal graph of one run: compute quanta
// as vertices, transfers and token hops as edges between ranks.
type Graph struct {
	// Transfers are the matched successful steals, ordered by
	// (Send, Victim, SendIdx) so lineage parents precede children.
	Transfers []Transfer
	// TokenHops are the matched termination-token deliveries, ordered
	// by (Send, From, SendIdx).
	TokenHops []TokenHop
	// Quanta are the per-rank compute quanta, time-ordered.
	Quanta [][]Quantum

	tr *trace.Trace
	// Per-rank lookup tables from event index to the matched element:
	// recvAt resolves an EvWorkRecv to its Transfer, tokenAt an
	// EvTokenRecv to its TokenHop. Sorted by event index.
	recvAt  [][]idxRef
	tokenAt [][]idxRef
}

// Build reconstructs the causal graph from a trace. A trace without an
// event log yields an empty graph (Blame still works from transitions
// alone; CriticalPath degenerates to one unattributed segment).
func Build(tr *trace.Trace) *Graph {
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

	// Index each rank's log once: the send/recv events filed under their
	// (rank, peer) pair, and the quantum spans.
	var workSend, workRecv, tokSend, tokRecv []peerRef
	for r, es := range tr.Events {
		qstart := -1
		for i, e := range es {
			switch e.Kind {
			case trace.EvWorkSend:
				workSend = addPeerRef(workSend, r, int(e.Peer), i)
			case trace.EvWorkRecv:
				workRecv = addPeerRef(workRecv, r, int(e.Peer), i)
			case trace.EvTokenSend:
				tokSend = addPeerRef(tokSend, r, int(e.Peer), i)
			case trace.EvTokenRecv:
				tokRecv = addPeerRef(tokRecv, r, int(e.Peer), i)
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
	matchFIFO(tr, workSend, workRecv, func(victim, thief, si, ri int, se, re trace.Event) {
		g.Transfers = append(g.Transfers, Transfer{
			Victim: victim, Thief: thief,
			Send: se.Time, Recv: re.Time,
			SendIdx: si, RecvIdx: ri,
			Nodes:      re.Arg,
			ReqSendIdx: -1, Parent: -1,
		})
	})
	matchFIFO(tr, tokSend, tokRecv, func(from, to, si, ri int, se, re trace.Event) {
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
		g.resolveRequest(&g.Transfers[i])
	}
	slices.SortStableFunc(g.Transfers, func(a, b Transfer) int {
		return cmp.Or(cmp.Compare(a.Send, b.Send), cmp.Compare(a.Victim, b.Victim), cmp.Compare(a.SendIdx, b.SendIdx))
	})
	slices.SortStableFunc(g.TokenHops, func(a, b TokenHop) int {
		return cmp.Or(cmp.Compare(a.Send, b.Send), cmp.Compare(a.From, b.From), cmp.Compare(a.SendIdx, b.SendIdx))
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
	byIdx := func(a, b idxRef) int { return cmp.Compare(a.idx, b.idx) }
	for r := range g.recvAt {
		slices.SortFunc(g.recvAt[r], byIdx)
		slices.SortFunc(g.tokenAt[r], byIdx)
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

// peerRef files one send or receive event under its ordered pair: rank
// recorded it, peer is the other end, idx its position in rank's log.
type peerRef struct{ rank, peer, idx int }

// addPeerRef appends the event at position idx of rank's log to the
// list. A log is scanned in order, so each pair's refs ascend in idx.
func addPeerRef(list []peerRef, rank, peer, idx int) []peerRef {
	if peer < 0 {
		return list
	}
	return append(list, peerRef{rank, peer, idx})
}

// byPair orders refs by (rank, peer).
func byPair(a, b peerRef) int {
	return cmp.Or(cmp.Compare(a.rank, b.rank), cmp.Compare(a.peer, b.peer))
}

// pairGroup returns the leading refs of list that share its first
// element's (rank, peer) pair.
func pairGroup(list []peerRef) []peerRef {
	k := 0
	for k < len(list) && byPair(list[k], list[0]) == 0 {
		k++
	}
	return list[:k]
}

// matchFIFO pairs the send and receive events of every ordered
// (from, to) pair in FIFO order and calls emit for each matched pair.
// Both lists are stably sorted by pair, which keeps each pair's events
// in log order; the walk is receivers ascending, then senders
// ascending, and a receive group's sends are found by binary search.
func matchFIFO(tr *trace.Trace, send, recv []peerRef, emit func(from, to, si, ri int, se, re trace.Event)) {
	slices.SortStableFunc(send, byPair)
	slices.SortStableFunc(recv, byPair)
	for len(recv) > 0 {
		recvs := pairGroup(recv)
		recv = recv[len(recvs):]
		to, from := recvs[0].rank, recvs[0].peer
		s0, ok := slices.BinarySearchFunc(send, peerRef{rank: from, peer: to}, byPair)
		if !ok {
			continue
		}
		sends := pairGroup(send[s0:])
		k := min(len(sends), len(recvs))
		// Tail-align: evictions drop oldest events first, so the
		// surviving lists share a common suffix.
		sends, recvs = sends[len(sends)-k:], recvs[len(recvs)-k:]
		for i := range sends {
			si, ri := sends[i].idx, recvs[i].idx
			se, re := tr.Events[from][si], tr.Events[to][ri]
			if se.Time >= re.Time {
				continue // misalignment; flight is >= 1ns
			}
			emit(from, to, si, ri, se, re)
		}
	}
}

// resolveRequest recovers the steal request a transfer answered: the
// victim records EvStealRecv immediately before its EvWorkSend, and
// the thief's EvStealSend carries the same request id.
func (g *Graph) resolveRequest(t *Transfer) {
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
	// The thief's send of that id sits before the receive in its log:
	// a thief numbers its requests, so there is at most one, and a log
	// is time-ordered, so a send after the receive could not pass the
	// se.Time < t.Send test anyway. Not found: evicted from the ring.
	tev := g.tr.Events[t.Thief]
	for j := t.RecvIdx - 1; j >= 0; j-- {
		se := tev[j]
		if se.Kind != trace.EvStealSend || uint64(se.Arg) != t.ReqID {
			continue
		}
		if int(se.Peer) == t.Victim && se.Time < t.Send {
			t.ReqSend = se.Time
			t.ReqSendIdx = j
		}
		break
	}
	t.ReqBound = reqBound && t.ReqSendIdx >= 0
}

// MigrationDepths histograms the transfers by lineage depth:
// result[d] transfers moved work that had survived d steals. Index 0
// is always zero (a transfer is at least depth 1).
func (g *Graph) MigrationDepths() []uint64 {
	var out []uint64
	for _, t := range g.Transfers {
		for len(out) <= t.Depth {
			out = append(out, 0)
		}
		out[t.Depth]++
	}
	return out
}

// MaxDepth returns the deepest migration observed, 0 with no transfers.
func (g *Graph) MaxDepth() int {
	depth := 0
	for _, t := range g.Transfers {
		depth = max(depth, t.Depth)
	}
	return depth
}

// Chain returns the steal chain feeding transfer i, oldest first, as
// indices into Transfers: the element at depth 1 moved work off its
// original owner's line and the last element is i itself.
func (g *Graph) Chain(i int) []int {
	var rev []int
	for j := i; j >= 0; j = g.Transfers[j].Parent {
		rev = append(rev, j)
	}
	slices.Reverse(rev)
	return rev
}

// ChainRanks renders transfer i's chain as the rank route the work
// took: victim of the first hop, then each successive thief.
func (g *Graph) ChainRanks(i int) []int {
	chain := g.Chain(i)
	ranks := make([]int, 0, len(chain)+1)
	ranks = append(ranks, g.Transfers[chain[0]].Victim)
	for _, j := range chain {
		ranks = append(ranks, g.Transfers[j].Thief)
	}
	return ranks
}

// QuantaCount returns the total number of compute quanta (the causal
// graph's vertices) across ranks.
func (g *Graph) QuantaCount() int {
	n := 0
	for _, qs := range g.Quanta {
		n += len(qs)
	}
	return n
}
