package comm

import (
	"reflect"
	"testing"
	"unsafe"

	"distws/internal/term"
	"distws/internal/uts"
)

// TestMessageHeaderOneLine pins the message's cache-line split: the
// eight fields every message uses fill the first 64 bytes exactly, the
// bodies start on the second line, and the whole struct is two lines.
func TestMessageHeaderOneLine(t *testing.T) {
	var m Message
	if off := unsafe.Offsetof(m.Nodes); off != 64 {
		t.Errorf("Message.Nodes at offset %d, want 64: the header is not one cache line", off)
	}
	for _, f := range []struct {
		name string
		off  uintptr
	}{
		{"From", unsafe.Offsetof(m.From)}, {"To", unsafe.Offsetof(m.To)},
		{"Tag", unsafe.Offsetof(m.Tag)}, {"ID", unsafe.Offsetof(m.ID)},
		{"Size", unsafe.Offsetof(m.Size)}, {"SentAt", unsafe.Offsetof(m.SentAt)},
		{"DeliveredAt", unsafe.Offsetof(m.DeliveredAt)}, {"Lineage", unsafe.Offsetof(m.Lineage)},
		{"body", unsafe.Offsetof(m.body)},
	} {
		if f.off >= 64 {
			t.Errorf("Message.%s at offset %d, outside the header line", f.name, f.off)
		}
	}
	if size := unsafe.Sizeof(m); size > 128 {
		t.Errorf("Message is %d bytes, want at most 128", size)
	}
}

// TestFreeClearsWhatSendFilled: Free clears the body line only for the
// senders that fill it, so every way of filling a message must come
// back from the pool fully zero — including the interposer's duplicate,
// which is a copy Free never saw being filled — and a request-id
// message too.
func TestFreeClearsWhatSendFilled(t *testing.T) {
	loot := []uts.Node{{Height: 3}, {Height: 4}}
	tok := term.Token{Round: 7}
	for _, c := range []struct {
		name string
		dup  bool
		send func(n *Network)
	}{
		{"SendNodes", false, func(n *Network) { n.SendNodes(0, 1, 9, loot, 2, 48) }},
		{"SendToken", false, func(n *Network) { n.SendToken(0, 1, tok, 16) }},
		{"SendID", false, func(n *Network) { n.SendID(0, 1, TagNoWork, 5, 16) }},
		{"duplicated SendNodes", true, func(n *Network) { n.SendNodes(0, 1, 9, loot, 2, 48) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			k, n := testNetwork(t, 2)
			want := 1
			if c.dup {
				n.SetInterposer(&scriptedInterposer{dropTag: numTags, dupTag: TagWork})
				want = 2
			}
			c.send(n)
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			msgs := append([]*Message(nil), n.Poll(1)...)
			if len(msgs) != want {
				t.Fatalf("polled %d messages, want %d", len(msgs), want)
			}
			for _, m := range msgs {
				if reflect.DeepEqual(*m, Message{}) {
					t.Fatal("delivered message is empty: the test would prove nothing")
				}
				n.Free(m)
			}
			for i, m := range msgs {
				if !reflect.DeepEqual(*m, Message{}) {
					t.Errorf("message %d recycled dirty: %+v", i, *m)
				}
				if got := n.pool[len(n.pool)-want+i]; got != m {
					t.Errorf("message %d is not back on the free list", i)
				}
			}
		})
	}
}

// TestDuplicateOwnsItsNodes: the interposer's duplicate of a work reply
// carries the same nodes in an array of its own, so a receiver that
// recycles the buffer of every reply it handles never recycles one
// array twice; the original still travels in the array the sender
// passed, uncopied.
func TestDuplicateOwnsItsNodes(t *testing.T) {
	k, n := testNetwork(t, 2)
	n.SetInterposer(&scriptedInterposer{dropTag: numTags, dupTag: TagWork})
	loot := []uts.Node{{Height: 3}, {Height: 4}}
	n.SendNodes(0, 1, 9, loot, 2, 48)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	msgs := n.Poll(1)
	if len(msgs) != 2 {
		t.Fatalf("polled %d messages, want the reply and its duplicate", len(msgs))
	}
	orig, dup := msgs[0].Nodes, msgs[1].Nodes
	if &orig[0] != &loot[0] {
		t.Error("the original reply does not carry the sender's array")
	}
	if !reflect.DeepEqual(dup, loot) {
		t.Errorf("duplicate carries %v, want %v", dup, loot)
	}
	if &dup[0] == &orig[0] {
		t.Error("duplicate shares its loot array with the original")
	}
}
