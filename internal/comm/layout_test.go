package comm

import (
	"reflect"
	"testing"
	"unsafe"

	"distws/internal/term"
	"distws/internal/uts"
)

// TestMessageHeaderOneLine pins the message's cache-line split: the
// fields a delivery fills from the header, and the marks Free reads,
// lie in the first 64 bytes, so delivering a message without a body
// writes one line of the network's view, and freeing a mailbox copy of
// one clears one line; the bodies follow.
func TestMessageHeaderOneLine(t *testing.T) {
	var m Message
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"From", unsafe.Offsetof(m.From), unsafe.Sizeof(m.From)},
		{"To", unsafe.Offsetof(m.To), unsafe.Sizeof(m.To)},
		{"Tag", unsafe.Offsetof(m.Tag), unsafe.Sizeof(m.Tag)},
		{"pooled", unsafe.Offsetof(m.pooled), unsafe.Sizeof(m.pooled)},
		{"body", unsafe.Offsetof(m.body), unsafe.Sizeof(m.body)},
		{"ID", unsafe.Offsetof(m.ID), unsafe.Sizeof(m.ID)},
		{"DeliveredAt", unsafe.Offsetof(m.DeliveredAt), unsafe.Sizeof(m.DeliveredAt)},
	} {
		if f.off+f.size > 64 {
			t.Errorf("Message.%s ends at byte %d, outside the header line", f.name, f.off+f.size)
		}
	}
	if off := unsafe.Offsetof(m.Lineage); off < unsafe.Offsetof(m.DeliveredAt) {
		t.Errorf("body field Lineage at offset %d, inside the header", off)
	}
	if size := unsafe.Sizeof(m); size > 128 {
		t.Errorf("Message is %d bytes, want at most 128", size)
	}
}

// TestFreeClearsWhatSendFilled: only pooled messages — bodies, and the
// mailbox copies of declined messages without one — come from and go
// back to the free list, so every way of filling one must come back
// from the pool fully zero, including the interposer's duplicate, which
// is a copy Free never saw being filled. A bodiless message the hook
// consumes is the network's view: Free leaves it, and the pool, alone.
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
				if !m.pooled || reflect.DeepEqual(*m, Message{pooled: true}) {
					t.Fatalf("delivered message %+v is not a filled pooled one: the test would prove nothing", *m)
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
	t.Run("consumed SendID", func(t *testing.T) {
		k, n := testNetwork(t, 2)
		var seen *Message
		n.SetDeliveryHook(func(m *Message) bool {
			seen = m
			n.Free(m)
			return true
		})
		n.SendID(0, 1, TagNoWork, 5, 16)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if seen != &n.view || seen.ID != 5 || seen.Tag != TagNoWork {
			t.Fatalf("hook saw %p %+v, want the network's view carrying the header", seen, seen)
		}
		if n.pool != nil {
			t.Fatalf("a consumed bodiless message grew the pool to %d", len(n.pool))
		}
	})
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
