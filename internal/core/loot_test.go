package core

import (
	"testing"

	"distws/internal/comm"
	"distws/internal/sim"
	"distws/internal/term"
	"distws/internal/topology"
	"distws/internal/uts"
)

// stealPair builds a two-rank engine reduced to its steal path: both
// ranks hold nodes and count as working, no quantum is pending and no
// detector ever fires, so the only events are the work replies the test
// asks for and a reply waits in the thief's mailbox until the test polls
// it. The returned function is one successful steal round trip — the
// victim answers a request, the reply is delivered, the thief banks the
// nodes — with the two ranks swapping roles every time.
func stealPair(t *testing.T, ip comm.Interposer) (*engine, func()) {
	t.Helper()
	cfg := Config{
		Tree:      uts.MustPreset("H-TINY").Params,
		Ranks:     2,
		Steal:     StealHalf,
		ChunkSize: 4,
		Seed:      1,
		Detector:  func(int) term.Detector { return openDetector{} },
	}.withDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	job, err := topology.NewJob(topology.KComputer(), cfg.Ranks, cfg.Placement)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	engines, err := newEngines(cfg, job, []*sim.Kernel{k}, nil, treeWork{}, new(runStore))
	if err != nil {
		t.Fatal(err)
	}
	e := engines[0]
	e.net.SetInterposer(ip)
	k.Cancel(e.ranks[0].w.quantum)
	for r := range e.ranks {
		w := e.work(r)
		w.quantum = sim.Event{}
		w.expNext, w.expTotal = 0, 0
		e.ranks[r].state = rsWorking
	}
	// Rank 1 opened with a request to rank 0; it goes unanswered.
	for k.Step() {
	}
	for _, m := range e.net.Poll(0) {
		e.net.Free(m)
	}
	for i := 0; i < 64; i++ {
		e.ranks[0].w.stack.Push(cfg.Tree.Root())
	}
	v, thief := 0, 1
	return e, func() {
		e.handleStealRequest(v, thief, 1)
		for k.Step() {
		}
		e.pollMailbox(thief)
		v, thief = thief, v
	}
}

// TestStealLootAllocFree: once the loot buffers, the stacks' segments
// and the message pool have reached their working size, a successful
// steal — packed into a recycled buffer at the victim, copied onto the
// thief's stack, the buffer handed back — allocates nothing.
func TestStealLootAllocFree(t *testing.T) {
	e, roundTrip := stealPair(t, nil)
	for i := 0; i < 100; i++ {
		roundTrip()
	}
	before := e.workReceived
	allocs := testing.AllocsPerRun(1000, roundTrip)
	if got := e.workReceived - before; got != 1001 {
		t.Fatalf("%d of 1001 round trips moved work: not the steady state this test assumes", got)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per successful steal, want 0", allocs)
	}
	if len(e.loot) != 1 {
		t.Errorf("%d loot buffers on the free list with no reply in flight, want the 1 in circulation", len(e.loot))
	}
}

// dupWork is an interposer that duplicates every work reply. The fault
// injector never does (a second copy of a reply would double its nodes
// and unbalance Safra's message count), so this is the comm layer's
// contract — any Interposer may — held at the engine.
type dupWork struct{ replies, nodes int }

func (d *dupWork) Outcome(h comm.Header, body *comm.Message, delay sim.Duration) (int, sim.Duration) {
	if tag, _, _, _ := h.Unpack(); tag != comm.TagWork {
		return 1, delay
	}
	d.replies++
	d.nodes += len(body.Nodes)
	return 2, delay
}

// TestDuplicateOwnsItsLoot: when the network duplicates a work reply the
// thief banks both copies and hands both buffers back, and they are two
// arrays — the duplicate owns a copy of its nodes — so the next two
// steals do not pack their loot into the same memory. Every node is
// accounted for: the two stacks hold what they started with plus one
// extra copy of each duplicated reply's loot.
func TestDuplicateOwnsItsLoot(t *testing.T) {
	dup := &dupWork{}
	e, roundTrip := stealPair(t, dup)
	start := e.ranks[0].w.stack.Len() + e.ranks[1].w.stack.Len()
	for i := 0; i < 20; i++ {
		roundTrip()
		seen := map[*uts.Node]bool{}
		for _, buf := range e.loot {
			if cap(buf) == 0 || seen[&buf[:1][0]] {
				t.Fatalf("round trip %d: the free list holds an empty buffer or one array twice", i)
			}
			seen[&buf[:1][0]] = true
		}
	}
	if dup.replies != 20 || e.workReceived != 40 {
		t.Fatalf("%d replies duplicated, %d copies banked, want 20 and 40", dup.replies, e.workReceived)
	}
	if got, want := len(e.loot), 21; got != want {
		t.Fatalf("%d buffers handed back, want %d: one per reply in circulation and one per duplicate", got, want)
	}
	if a, b := e.getLoot(), e.getLoot(); &a[:1][0] == &b[:1][0] {
		t.Fatal("the next two steals would pack their loot into one array")
	}
	if got, want := e.ranks[0].w.stack.Len()+e.ranks[1].w.stack.Len(), start+dup.nodes; got != want {
		t.Fatalf("%d nodes on the two stacks, want the initial %d plus the %d duplicated", got, start, dup.nodes)
	}
}
