package comm

import (
	"math"
	"testing"

	"distws/internal/sim"
)

// TestHeaderRoundTrip packs and unpacks every tag with the extreme
// ranks at both ends and the extreme ids: no field may bleed into
// another.
func TestHeaderRoundTrip(t *testing.T) {
	for tag := Tag(0); tag < numTags; tag++ {
		for _, from := range []int{0, 1, MaxRanks - 1} {
			for _, to := range []int{0, 1, MaxRanks - 1} {
				for _, id := range []uint64{0, 1, math.MaxUint64} {
					gt, gf, gto, gid := Pack(tag, from, to, id).Unpack()
					if gt != tag || gf != from || gto != to || gid != id {
						t.Fatalf("Pack(%v, %d, %d, %d) unpacks to (%v, %d, %d, %d)", tag, from, to, id, gt, gf, gto, gid)
					}
				}
			}
		}
	}
}

// TestBodilessSendTakesNoObject: a message without a body travels as
// its header on every send path — plain, interposed (delivered,
// duplicated, dropped) and routed — so none of them takes an object
// from the pool.
func TestBodilessSendTakesNoObject(t *testing.T) {
	k, n := testNetwork(t, 4)
	consumed := 0
	n.SetDeliveryHook(func(m *Message) bool { consumed++; n.Free(m); return true })
	for tag := Tag(0); tag < numTags; tag++ {
		n.SendID(0, 1, tag, 7, 16)
	}
	n.SetInterposer(&scriptedInterposer{dropTag: TagNoWork, dupTag: TagStealRequest})
	for tag := Tag(0); tag < numTags; tag++ {
		n.SendID(2, 3, tag, 8, 16)
	}
	n.SetInterposer(nil)
	var claimed []Header
	n.SetRouter(func(h Header, body *Message, _ sim.Duration) bool {
		if body != nil {
			t.Errorf("router got a body for header %v", h)
		}
		claimed = append(claimed, h)
		return true
	})
	n.SendID(3, 0, TagTerminate, 0, 8)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Every plain send, and the interposed ones with one dropped and one
	// duplicated; the routed one is the router's.
	if want := 2 * int(numTags); consumed != want {
		t.Fatalf("hook consumed %d messages, want %d", consumed, want)
	}
	if len(claimed) != 1 || claimed[0] != Pack(TagTerminate, 3, 0, 0) {
		t.Fatalf("router claimed %v", claimed)
	}
	if n.pool != nil {
		t.Fatalf("bodiless traffic grew the pool to %d messages", len(n.pool))
	}
}
