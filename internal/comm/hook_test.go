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
		if m.To != 1 || m.Tag != TagNoWork || m.DeliveredAt != k.Now() || m.DeliveredAt <= m.SentAt {
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
	if len(n.pool) != poolSlab {
		t.Fatalf("%d messages in the pool, want the whole slab of %d: the hook freed all 3", len(n.pool), poolSlab)
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
