package comm

import (
	"testing"

	"distws/internal/sim"
	"distws/internal/term"
	"distws/internal/topology"
	"distws/internal/uts"
)

func testNetwork(t *testing.T, nranks int) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.NewKernel()
	job, err := topology.NewJob(topology.KComputer(), nranks, topology.OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	return k, New(k, job, topology.DefaultLatency())
}

func TestSendDeliversAfterLatency(t *testing.T) {
	k, n := testNetwork(t, 4)
	var deliveredAt sim.Time
	n.SendID(0, 1, TagStealRequest, 42, 16)
	if n.Pending(1) {
		t.Fatal("message visible before latency elapsed")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	msgs := n.Poll(1)
	if len(msgs) != 1 {
		t.Fatalf("polled %d messages, want 1", len(msgs))
	}
	m := msgs[0]
	deliveredAt = m.DeliveredAt
	if m.From != 0 || m.To != 1 || m.Tag != TagStealRequest || m.ID != 42 {
		t.Fatalf("message corrupted: %+v", m)
	}
	if deliveredAt <= m.SentAt {
		t.Fatal("delivery not after send")
	}
	want := topology.DefaultLatency().Latency(n.Job(), 0, 1, 16)
	if got := deliveredAt.Sub(m.SentAt); got != want {
		t.Fatalf("latency %v, want %v", got, want)
	}
}

func TestPollDrains(t *testing.T) {
	k, n := testNetwork(t, 2)
	n.SendID(0, 1, TagWork, 1, 0)
	n.SendID(0, 1, TagWork, 2, 0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Poll(1)); got != 2 {
		t.Fatalf("first poll: %d", got)
	}
	if n.Poll(1) != nil {
		t.Fatal("second poll returned messages")
	}
	if n.Pending(1) {
		t.Fatal("Pending after drain")
	}
}

func TestPairwiseFIFO(t *testing.T) {
	k, n := testNetwork(t, 2)
	const count = 50
	for i := 0; i < count; i++ {
		n.SendID(0, 1, TagWork, uint64(i), 8)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	msgs := n.Poll(1)
	if len(msgs) != count {
		t.Fatalf("got %d messages", len(msgs))
	}
	for i, m := range msgs {
		if m.ID != uint64(i) {
			t.Fatalf("message %d carries %v: FIFO violated", i, m.ID)
		}
	}
}

func TestNotifyFiresAtDelivery(t *testing.T) {
	k, n := testNetwork(t, 2)
	var wokenAt []sim.Time
	n.SetNotify(1, func() { wokenAt = append(wokenAt, k.Now()) })
	n.SendID(0, 1, TagStealRequest, 0, 0)
	n.SendID(0, 1, TagStealRequest, 0, 0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(wokenAt) != 2 {
		t.Fatalf("notify fired %d times, want 2", len(wokenAt))
	}
	msgs := n.Poll(1)
	if msgs[0].DeliveredAt != wokenAt[0] {
		t.Fatal("notify time != delivery time")
	}
	// Uninstall and verify silence.
	n.SetNotify(1, nil)
	n.SendID(0, 1, TagStealRequest, 0, 0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(wokenAt) != 2 {
		t.Fatal("notify fired after uninstall")
	}
}

func TestSelfSend(t *testing.T) {
	k, n := testNetwork(t, 1)
	n.SendID(0, 0, TagToken, 0, 4)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(n.Poll(0)) != 1 {
		t.Fatal("self-send not delivered")
	}
}

func TestSendToInvalidRankPanics(t *testing.T) {
	_, n := testNetwork(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid destination")
		}
	}()
	n.SendID(0, 5, TagWork, 0, 0)
}

func TestStatsCounters(t *testing.T) {
	k, n := testNetwork(t, 3)
	n.SendID(0, 1, TagStealRequest, 0, 10)
	n.SendID(1, 0, TagNoWork, 0, 4)
	n.SendID(0, 2, TagStealRequest, 0, 10)
	n.SendID(2, 0, TagWork, 0, 200)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.Poll(0)
	n.Poll(1)
	n.Poll(2)
	s := n.Stats()
	if s.SentByTag(TagStealRequest) != 2 || s.SentByTag(TagNoWork) != 1 || s.SentByTag(TagWork) != 1 {
		t.Fatalf("sent counters wrong: %+v", s.Sent)
	}
	if s.Bytes[TagStealRequest] != 20 || s.Bytes[TagWork] != 200 {
		t.Fatalf("byte counters wrong: %+v", s.Bytes)
	}
	if s.TotalSent() != 4 {
		t.Fatalf("TotalSent = %d", s.TotalSent())
	}
	if s.Received[TagStealRequest] != 2 || s.Received[TagWork] != 1 || s.Received[TagNoWork] != 1 {
		t.Fatalf("received counters wrong: %+v", s.Received)
	}
}

func TestLatencyHeterogeneity(t *testing.T) {
	// A message to a nearby rank must arrive before a same-time message
	// to a distant rank — the property the whole paper depends on.
	k := sim.NewKernel()
	job, err := topology.NewJob(topology.KComputer(), 1024, topology.OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	n := New(k, job, topology.DefaultLatency())
	var nearAt, farAt sim.Time
	n.SetNotify(1, func() { nearAt = k.Now() })
	n.SetNotify(1023, func() { farAt = k.Now() })
	n.SendID(0, 1, TagStealRequest, 0, 0)
	n.SendID(0, 1023, TagStealRequest, 0, 0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if nearAt == 0 || farAt == 0 {
		t.Fatal("messages not delivered")
	}
	if nearAt >= farAt {
		t.Fatalf("near delivery %v not before far delivery %v", nearAt, farAt)
	}
}

func TestTagString(t *testing.T) {
	for tag, want := range map[Tag]string{
		TagStealRequest: "StealRequest",
		TagWork:         "Work",
		TagNoWork:       "NoWork",
		TagToken:        "Token",
		TagTerminate:    "Terminate",
		Tag(99):         "Tag(99)",
	} {
		if got := tag.String(); got != want {
			t.Errorf("Tag(%d).String() = %q, want %q", uint8(tag), got, want)
		}
	}
}

func TestRanksAndNilModelPanic(t *testing.T) {
	k, n := testNetwork(t, 3)
	_ = k
	if n.Ranks() != 3 {
		t.Fatalf("Ranks = %d", n.Ranks())
	}
	job := n.Job()
	defer func() {
		if recover() == nil {
			t.Fatal("nil latency model accepted")
		}
	}()
	New(sim.NewKernel(), job, nil)
}

func TestZeroLatencyClampedToOneNanosecond(t *testing.T) {
	k := sim.NewKernel()
	job, err := topology.NewJob(topology.KComputer(), 2, topology.OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	n := New(k, job, &topology.UniformLatency{Fixed: 0})
	n.SendID(0, 1, TagWork, 0, 0)
	var at sim.Time
	n.SetNotify(1, func() { at = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 1 {
		t.Fatalf("zero-latency message delivered at %d, want clamped to 1ns", at)
	}
}

func TestMailboxReleasesPeakCapacity(t *testing.T) {
	k, n := testNetwork(t, 2)
	// A burst — e.g. the flood of failed steals near termination —
	// balloons the mailbox ring far past its steady-state occupancy.
	const burst = 1000
	for i := 0; i < burst; i++ {
		n.SendID(0, 1, TagWork, uint64(i), 8)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Poll(1)); got != burst {
		t.Fatalf("drained %d messages, want %d", got, burst)
	}
	peak := len(n.mailbox[1].buf)
	if peak < burst {
		t.Fatalf("ring capacity %d never reached the burst size %d", peak, burst)
	}
	// Steady-state traffic is one message per poll; within a few polls
	// the decaying high-water mark must let the ring release the
	// burst-sized backing array instead of pinning it for the run.
	for i := 0; i < 10; i++ {
		n.SendID(0, 1, TagWork, uint64(i), 8)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got := len(n.Poll(1)); got != 1 {
			t.Fatalf("poll %d drained %d messages, want 1", i, got)
		}
	}
	if got := len(n.mailbox[1].buf); got >= peak {
		t.Fatalf("ring capacity still %d after steady-state polls, want it released below the %d peak", got, peak)
	}
}

func TestMessagePoolRecyclesFreedMessages(t *testing.T) {
	k, n := testNetwork(t, 2)
	n.SendNodes(0, 1, 7, make([]uts.Node, 3), 2, 60)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	msgs := n.Poll(1)
	if len(msgs) != 1 {
		t.Fatalf("polled %d messages, want 1", len(msgs))
	}
	first := msgs[0]
	if first.Tag != TagWork || first.ID != 7 || len(first.Nodes) != 3 || first.Lineage != 2 {
		t.Fatalf("typed fields corrupted: %+v", first)
	}
	n.Free(first)
	// The next send must reuse the freed message, fully re-zeroed: no
	// stale loot or token may leak between protocol messages.
	n.SendID(1, 0, TagStealRequest, 9, 16)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	msgs = n.Poll(0)
	if len(msgs) != 1 {
		t.Fatalf("polled %d messages, want 1", len(msgs))
	}
	m := msgs[0]
	if m != first {
		t.Fatal("freed message not recycled by the pool")
	}
	if m.Tag != TagStealRequest || m.ID != 9 || m.Nodes != nil || m.Token != (term.Token{}) {
		t.Fatalf("recycled message carries stale state: %+v", m)
	}
}

func TestSendTokenCarriesToken(t *testing.T) {
	k, n := testNetwork(t, 2)
	tok := term.Token{Color: term.Black, Count: 5, Round: 2}
	n.SendToken(0, 1, tok, 16)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	msgs := n.Poll(1)
	if len(msgs) != 1 || msgs[0].Tag != TagToken || msgs[0].Token != tok {
		t.Fatalf("token message corrupted: %+v", msgs[0])
	}
}

// scriptedInterposer drops, duplicates, or delays by tag — a test
// double for the fault injector.
type scriptedInterposer struct {
	dropTag Tag
	dupTag  Tag
	delay   sim.Duration // replaces the model delay when nonzero
}

func (s *scriptedInterposer) Outcome(m *Message, delay sim.Duration) (int, sim.Duration) {
	if s.delay != 0 {
		delay = s.delay
	}
	switch m.Tag {
	case s.dropTag:
		return 0, delay
	case s.dupTag:
		return 2, delay
	}
	return 1, delay
}

func TestInterposerDropsAndDuplicates(t *testing.T) {
	k, n := testNetwork(t, 2)
	n.SetInterposer(&scriptedInterposer{dropTag: TagNoWork, dupTag: TagStealRequest})
	n.SendID(0, 1, TagStealRequest, 7, 8)
	n.SendID(0, 1, TagNoWork, 7, 8)
	n.SendID(0, 1, TagWork, 7, 8)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	msgs := n.Poll(1)
	if len(msgs) != 3 {
		t.Fatalf("polled %d messages, want 3 (dup request + work, no-work dropped)", len(msgs))
	}
	// FIFO: the original precedes its duplicate.
	if msgs[0].Tag != TagStealRequest || msgs[1].Tag != TagStealRequest || msgs[2].Tag != TagWork {
		t.Fatalf("unexpected delivery order: %v %v %v", msgs[0].Tag, msgs[1].Tag, msgs[2].Tag)
	}
	if msgs[1].ID != 7 || msgs[1].From != 0 {
		t.Fatalf("duplicate lost its fields: %+v", msgs[1])
	}
	st := n.Stats()
	if st.Dropped[TagNoWork] != 1 || st.TotalDropped() != 1 {
		t.Fatalf("dropped counters: %+v", st.Dropped)
	}
	if st.Duplicated[TagStealRequest] != 1 {
		t.Fatalf("duplicated counters: %+v", st.Duplicated)
	}
	// Sent counts the original sends only; Received counts what arrived.
	if st.Sent[TagStealRequest] != 1 || st.Received[TagStealRequest] != 2 {
		t.Fatalf("sent/received: %d/%d", st.Sent[TagStealRequest], st.Received[TagStealRequest])
	}
	if st.Received[TagNoWork] != 0 {
		t.Fatal("dropped message was received")
	}
}

func TestInterposerDelaysDelivery(t *testing.T) {
	k, n := testNetwork(t, 2)
	n.SendID(0, 1, TagWork, 1, 8)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	base := n.Poll(1)[0].DeliveredAt
	spike := 10 * base
	n.SetInterposer(&scriptedInterposer{dropTag: numTags, dupTag: numTags, delay: sim.Duration(spike)})
	start := k.Now()
	n.SendID(0, 1, TagWork, 2, 8)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := n.Poll(1)[0].DeliveredAt - start
	if got != sim.Time(spike) {
		t.Fatalf("interposed delay %v, want %v", got, spike)
	}
}

func TestInterposerDroppedMessageIsPooled(t *testing.T) {
	k, n := testNetwork(t, 2)
	n.SetInterposer(&scriptedInterposer{dropTag: TagNoWork, dupTag: numTags})
	n.SendID(0, 1, TagNoWork, 1, 8)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The dropped message went straight back to the free list — the
	// pool's one slab is whole again — and the next alloc must reuse it.
	if len(n.pool) != poolSlab {
		t.Fatalf("pool holds %d messages after a drop, want the slab's %d", len(n.pool), poolSlab)
	}
	recycled := n.pool[len(n.pool)-1]
	n.SendID(0, 1, TagWork, 2, 8)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	msgs := n.Poll(1)
	if len(msgs) != 1 || msgs[0] != recycled {
		t.Fatal("drop did not recycle the message through the pool")
	}
}
