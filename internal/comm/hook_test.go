package comm

import (
	"fmt"
	"reflect"
	"testing"
)

// TestConsumingHookBypassesMailbox: a message the delivery hook takes
// is stamped and counted as received, and neither the destination's
// mailbox nor its notify callback ever sees it.
func TestConsumingHookBypassesMailbox(t *testing.T) {
	k, n := testNetwork(t, 4)
	notified := 0
	n.SetNotify(1, func() { notified++ })
	var got []uint64
	n.SetDeliveryHook(func(m *Message) bool {
		if m.From != 0 || m.To != 1 || m.Tag != TagNoWork || m.DeliveredAt != k.Now() || m.DeliveredAt <= 0 {
			t.Errorf("hook saw %+v at %v", m, k.Now())
		}
		if n.Pending(m.To) {
			t.Error("message reached the mailbox before the hook")
		}
		got = append(got, m.ID)
		n.Free(m)
		return true
	})
	for id := uint64(1); id <= 3; id++ {
		n.SendID(0, 1, TagNoWork, id, 16)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
		t.Fatalf("hook consumed ids %v, want 1 2 3 in send order", got)
	}
	if notified != 0 || n.Pending(1) || n.Poll(1) != nil || n.mailbox[1].buf != nil {
		t.Fatalf("consumed messages touched the mailbox: %d notifies, pending %v, buffer %d slots",
			notified, n.Pending(1), len(n.mailbox[1].buf))
	}
	if st := n.Stats(); st.Received[TagNoWork] != 3 || st.Sent[TagNoWork] != 3 {
		t.Fatalf("sent %d, received %d NoWork messages, want 3 and 3", st.Sent[TagNoWork], st.Received[TagNoWork])
	}
	if n.pool != nil {
		t.Fatalf("%d messages in the pool, want none: a consumed message without a body is never pooled", len(n.pool))
	}
}

// seenMsg is what a receiver can observe of a delivered message.
type seenMsg struct {
	From, To int
	Tag      Tag
	ID       uint64
	At       int64
}

func seen(m *Message) seenMsg {
	return seenMsg{m.From, m.To, m.Tag, m.ID, int64(m.DeliveredAt)}
}

// TestDeclinedViewKeepsHeaderAndOrder: a message without a body reaches
// the hook as the network's one reusable view; the ones the hook
// declines reach Poll as copies of it, each with its own header and
// delivery instant, in delivery order, interleaved with consumed ones
// and with work replies that carry a body.
func TestDeclinedViewKeepsHeaderAndOrder(t *testing.T) {
	k, n := testNetwork(t, 8)
	var offered, declined []seenMsg
	n.SetDeliveryHook(func(m *Message) bool {
		s := seen(m)
		offered = append(offered, s)
		if m.ID%3 == 0 {
			n.Free(m)
			return true
		}
		declined = append(declined, s)
		return false
	})
	tags := []Tag{TagStealRequest, TagNoWork, TagTerminate}
	for id := uint64(1); id <= 12; id++ {
		from := int(id) % 8
		if from == 5 {
			from = 0
		}
		if id == 7 {
			n.SendNodes(from, 5, id, nil, 1, 16)
			continue
		}
		n.SendID(from, 5, tags[id%3], id, 16)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var polled []seenMsg
	for _, m := range n.Poll(5) {
		polled = append(polled, seen(m))
		n.Free(m)
	}
	if len(offered) != 12 || len(declined) != 8 {
		t.Fatalf("hook offered %d messages and declined %d, want 12 and 8", len(offered), len(declined))
	}
	if !reflect.DeepEqual(polled, declined) {
		t.Fatalf("Poll returned\n %v\nwant the declined messages as the hook saw them\n %v", polled, declined)
	}
	for i := 1; i < len(offered); i++ {
		if offered[i].At < offered[i-1].At {
			t.Fatalf("offered out of delivery order: %v", offered)
		}
	}
}

// TestInterposerDuplicatesAndDropsHeaders: a message without a body
// that the interposer duplicates arrives twice with one header at one
// instant, and one it drops reaches the interposer with its own from,
// to and tag and never arrives.
func TestInterposerDuplicatesAndDropsHeaders(t *testing.T) {
	k, n := testNetwork(t, 8)
	ip := &scriptedInterposer{dropTag: TagNoWork, dupTag: TagStealRequest}
	n.SetInterposer(ip)
	var got []seenMsg
	n.SetDeliveryHook(func(m *Message) bool {
		got = append(got, seen(m))
		n.Free(m)
		return true
	})
	n.SendID(2, 6, TagStealRequest, 41, 16)
	n.SendID(6, 3, TagNoWork, 42, 16)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != got[1] || got[0].From != 2 || got[0].To != 6 || got[0].Tag != TagStealRequest || got[0].ID != 41 {
		t.Fatalf("delivered %+v, want request 41 from 2 to 6 twice", got)
	}
	if want := []Header{Pack(TagNoWork, 6, 3, 42)}; !reflect.DeepEqual(ip.dropped, want) {
		t.Fatalf("interposer dropped %v, want %v", ip.dropped, want)
	}
	if st := n.Stats(); st.Duplicated[TagStealRequest] != 1 || st.Dropped[TagNoWork] != 1 || n.pool != nil {
		t.Fatalf("stats %+v, pool %d: want one duplicate, one drop and no pooled object", st, len(n.pool))
	}
}

// deliveryLog runs a fixed exchange — several senders, a notify
// callback that polls every other delivery — and records each step a
// receiver can observe, in order.
func deliveryLog(t *testing.T, hook func(*Message) bool) []string {
	t.Helper()
	k, n := testNetwork(t, 8)
	n.SetDeliveryHook(hook)
	var log []string
	deliveries := 0
	n.SetNotify(3, func() {
		log = append(log, fmt.Sprintf("notify@%d pending=%v", k.Now(), n.Pending(3)))
		if deliveries++; deliveries%2 == 0 {
			for _, m := range n.Poll(3) {
				log = append(log, fmt.Sprintf("poll %d from %d delivered@%d", m.ID, m.From, m.DeliveredAt))
				n.Free(m)
			}
		}
	})
	for id := uint64(0); id < 9; id++ {
		n.SendID(int(id)%3, 3, TagStealRequest, id, 16)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, m := range n.Poll(3) {
		log = append(log, fmt.Sprintf("final poll %d from %d", m.ID, m.From))
	}
	st := n.Stats()
	return append(log, fmt.Sprintf("received %v", st.Received))
}

// TestDecliningHookLeavesDeliveryUnchanged: with a hook that declines
// everything, push, notify and Poll happen exactly as with no hook.
func TestDecliningHookLeavesDeliveryUnchanged(t *testing.T) {
	offered := 0
	without := deliveryLog(t, nil)
	with := deliveryLog(t, func(*Message) bool { offered++; return false })
	if offered != 9 {
		t.Fatalf("hook was offered %d messages, want all 9", offered)
	}
	if len(without) < 9+9+1 {
		t.Fatalf("reference exchange logged only %d steps: %v", len(without), without)
	}
	if !reflect.DeepEqual(with, without) {
		t.Fatalf("a declining hook changed what the receiver observed:\n with    %v\n without %v", with, without)
	}
}

// TestHookDecidesPerMessage: consumed and declined messages to one
// rank interleave; the declined ones keep their order in the mailbox.
func TestHookDecidesPerMessage(t *testing.T) {
	k, n := testNetwork(t, 2)
	n.SetDeliveryHook(func(m *Message) bool {
		if m.ID%2 == 0 {
			return false
		}
		n.Free(m)
		return true
	})
	for id := uint64(0); id < 6; id++ {
		n.SendID(0, 1, TagWork, id, 16)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var polled []uint64
	for _, m := range n.Poll(1) {
		polled = append(polled, m.ID)
	}
	if !reflect.DeepEqual(polled, []uint64{0, 2, 4}) {
		t.Fatalf("polled ids %v, want the declined 0 2 4", polled)
	}
	if got := n.Stats().Received[TagWork]; got != 6 {
		t.Fatalf("received %d, want 6 (3 consumed + 3 polled)", got)
	}
}
