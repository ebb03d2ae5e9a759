package comm

import (
	"testing"

	"distws/internal/sim"
	"distws/internal/topology"
)

// TestRouterClaimsMessages checks the cross-shard hook: a claimed
// message is not delivered locally, the sender's Sent counters still
// stand, and re-injecting its header through the destination network's
// DeliverFn lands it in the right mailbox with the right DeliveredAt.
func TestRouterClaimsMessages(t *testing.T) {
	job, err := topology.NewJob(topology.KComputer(), 8, topology.OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	model := topology.DefaultLatency()
	kSrc, kDst := sim.NewKernel(), sim.NewKernel()
	src := New(kSrc, job, model)
	dst := New(kDst, job, model)

	type claimed struct {
		h     Header
		body  *Message
		delay sim.Duration
	}
	var claims []claimed
	src.SetRouter(func(h Header, body *Message, delay sim.Duration) bool {
		if _, _, to, _ := h.Unpack(); to >= 4 { // "other shard"
			claims = append(claims, claimed{h, body, delay})
			return true
		}
		return false
	})

	src.SendID(0, 5, TagStealRequest, 42, 8) // cross: claimed
	src.SendID(0, 2, TagNoWork, 7, 8)        // local: normal path
	if len(claims) != 1 || claims[0].h != Pack(TagStealRequest, 0, 5, 42) || claims[0].body != nil {
		t.Fatalf("router claims = %+v, want one bodiless claim for rank 5", claims)
	}
	if got := src.Stats().Sent[TagStealRequest]; got != 1 {
		t.Fatalf("sender Sent[StealRequest] = %d, want 1 (counted before routing)", got)
	}
	if err := kSrc.Run(); err != nil {
		t.Fatal(err)
	}
	if src.Pending(5) {
		t.Fatal("claimed message was delivered locally")
	}
	if !src.Pending(2) {
		t.Fatal("unclaimed local message was not delivered")
	}

	// Barrier-style re-injection on the destination network's kernel.
	c := claims[0]
	at := sim.Time(0).Add(c.delay) // sent at time zero
	kDst.AtPayload(at, dst.DeliverFn(), c.body, sim.Payload(c.h))
	if err := kDst.Run(); err != nil {
		t.Fatal(err)
	}
	msgs := dst.Poll(5)
	if len(msgs) != 1 || msgs[0].ID != 42 || msgs[0].From != 0 || msgs[0].DeliveredAt != at {
		t.Fatalf("cross delivery = %+v, want ID 42 at %v", msgs, at)
	}
	if got := dst.Stats().Received[TagStealRequest]; got != 1 {
		t.Fatalf("destination Received = %d, want 1", got)
	}
}

// TestRouterInterposerExclusive pins the mutual exclusion: fault
// interposition draws from an order-dependent stream, which the
// parallel windows would scramble.
func TestRouterInterposerExclusive(t *testing.T) {
	job, err := topology.NewJob(topology.KComputer(), 2, topology.OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	n := New(sim.NewKernel(), job, topology.DefaultLatency())
	n.SetRouter(func(Header, *Message, sim.Duration) bool { return false })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetInterposer after SetRouter did not panic")
			}
		}()
		n.SetInterposer(dropAll{})
	}()

	n2 := New(sim.NewKernel(), job, topology.DefaultLatency())
	n2.SetInterposer(dropAll{})
	defer func() {
		if recover() == nil {
			t.Error("SetRouter after SetInterposer did not panic")
		}
	}()
	n2.SetRouter(func(Header, *Message, sim.Duration) bool { return false })
}

type dropAll struct{}

func (dropAll) Outcome(Header, *Message, sim.Duration) (int, sim.Duration) { return 0, 0 }
