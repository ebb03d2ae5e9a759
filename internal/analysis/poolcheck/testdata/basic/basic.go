// Package fixture exercises the poolcheck analyzer: every drained
// message must be freed or transferred exactly once on every path.
package fixture

import (
	"distws/internal/comm"
	"distws/internal/uts"
)

type handler struct {
	net      *comm.Network
	deferred []*comm.Message
	stack    []uts.Node
	loot     [][]uts.Node
}

// drainClean frees on every switch arm: clean.
func (h *handler) drainClean(r int) {
	for _, m := range h.net.Poll(r) {
		switch m.Tag {
		case comm.TagStealRequest:
			h.inspect(m)
			h.net.Free(m)
		default:
			h.net.Free(m)
		}
	}
}

// oneSided is a handler with a batch of its own: steal requests served
// and freed inline, everything else transfers to the deferred batch.
// Both paths resolve ownership: clean.
func (h *handler) oneSided(r int) {
	for _, m := range h.net.Poll(r) {
		if m.Tag == comm.TagStealRequest {
			h.inspect(m)
			h.net.Free(m)
		} else {
			h.deferred = append(h.deferred, m)
		}
	}
}

// deferredDrain mirrors pollMailbox's batch swap: the swapped local is
// an owning batch, and each message is freed after handling: clean.
func (h *handler) deferredDrain() {
	msgs := h.deferred
	h.deferred = h.deferred[:0]
	for _, m := range msgs {
		h.inspect(m)
		h.net.Free(m)
	}
}

// lootHandBack is the engine's work-reply arm: the nodes are copied
// out, the buffer that carried them goes back on the handler's free
// list, and then the message is freed. The message gives m.Nodes up at
// the hand-back — the next reply is packed into that array — so nothing
// reads m.Nodes, or keeps a slice of it, afterwards. The message's own
// ownership resolves once, after the field write: clean.
func (h *handler) lootHandBack(r int) {
	for _, m := range h.net.Poll(r) {
		if m.Tag == comm.TagWork {
			h.stack = append(h.stack, m.Nodes...)
			h.loot = append(h.loot, m.Nodes[:0])
			m.Nodes = nil
		}
		h.net.Free(m)
	}
}

// viaConsumer discharges ownership through a helper the call graph
// proves forwards to Network.Free: clean.
func (h *handler) viaConsumer(r int) {
	for _, m := range h.net.Poll(r) {
		h.discard(m)
	}
}

// discard is an interprocedurally-derived consumer.
func (h *handler) discard(m *comm.Message) {
	h.net.Free(m)
}

// inspect borrows: it reads but never frees.
func (h *handler) inspect(m *comm.Message) int { return m.From }

// borrowWalk ranges a struct field, not a swapped local, so iteration
// is borrowing: clean.
func (h *handler) borrowWalk() int {
	total := 0
	for _, m := range h.deferred {
		total += m.Lineage
	}
	return total
}

// leakOnContinue skips the free on the no-work arm.
func (h *handler) leakOnContinue(r int) {
	for _, m := range h.net.Poll(r) {
		if m.Tag == comm.TagNoWork {
			continue // want `message m may leak: continue ends the iteration while still owned`
		}
		h.net.Free(m)
	}
}

// leakAtEnd frees only one tag; the others fall off the iteration owned.
func (h *handler) leakAtEnd(r int) {
	for _, m := range h.net.Poll(r) { // want `message m may leak: an iteration can end without Network.Free`
		if m.Tag == comm.TagWork {
			h.net.Free(m)
		}
	}
}

// doubleFree resolves ownership twice on the same path.
func (h *handler) doubleFree(r int) {
	for _, m := range h.net.Poll(r) {
		h.net.Free(m)
		h.net.Free(m) // want `message m freed twice`
	}
}

// branchDoubleFree frees on one path, then again unconditionally.
func (h *handler) branchDoubleFree(r int) {
	for _, m := range h.net.Poll(r) {
		if m.Tag == comm.TagToken {
			h.net.Free(m)
		}
		h.net.Free(m) // want `message m freed twice`
	}
}

// useAfterFree reads a field of a recycled message.
func (h *handler) useAfterFree(r int) int {
	n := 0
	for _, m := range h.net.Poll(r) {
		h.net.Free(m)
		n += m.Lineage // want `message m used after Network.Free`
	}
	return n
}

// leakOnReturn exits the drain with the current message still owned.
func (h *handler) leakOnReturn(r int) {
	for _, m := range h.net.Poll(r) {
		if m.Tag == comm.TagTerminate {
			return // want `message m may leak: return exits the drain`
		}
		h.net.Free(m)
	}
}
