// Package seeded is a deliberately broken copy of three drain shapes
// the runtime has had: the engine's former onDelivery (crashed-corpse
// drain and one-sided inline serve, internal/core), its pollMailbox
// (then a deferred batch swap plus Poll walk), and the DAG scheduler's
// drain (internal/dagws, since deleted). Each copy drops a Network.Free the production
// code performed (or, for dagws, reproduces the leak the analyzer was
// built to catch), and the analyzer must fire on every broken drain.
package seeded

import "distws/internal/comm"

const (
	rsWorking = iota
	rsCrashed
	rsDone
)

type rank struct {
	state    int
	loot     int
	misses   int
	deferred []*comm.Message
}

type engine struct {
	net   *comm.Network
	ranks []rank
}

// onDelivery mirrors core's old onDelivery, deadLetter's Free replaced
// by a non-consuming note in the crashed branch and the inline Free
// dropped from the one-sided steal-request arm.
func (e *engine) onDelivery(r int) {
	rk := &e.ranks[r]
	if rk.state == rsCrashed {
		for _, m := range e.net.Poll(r) { // want `message m may leak: an iteration can end without Network.Free`
			e.noteDead(m)
		}
		return
	}
	if rk.state == rsWorking {
		for _, m := range e.net.Poll(r) { // want `message m may leak: an iteration can end without Network.Free`
			if m.Tag == comm.TagStealRequest {
				e.handle(r, m)
			} else {
				rk.deferred = append(rk.deferred, m)
			}
		}
		return
	}
}

// pollMailbox keeps the deferred-batch swap intact but forgets the Free
// in the Poll walk.
func (e *engine) pollMailbox(r int) {
	rk := &e.ranks[r]
	if len(rk.deferred) > 0 {
		msgs := rk.deferred
		rk.deferred = rk.deferred[:0]
		for _, m := range msgs {
			e.handle(r, m)
			e.net.Free(m)
		}
	}
	for _, m := range e.net.Poll(r) { // want `message m may leak: an iteration can end without Network.Free`
		e.handle(r, m)
	}
}

// drain mirrors the DAG scheduler's drain, which polls and never frees.
func (e *engine) drain(r int) {
	rk := &e.ranks[r]
	for _, m := range e.net.Poll(r) { // want `message m may leak: an iteration can end without Network.Free`
		switch m.Tag {
		case comm.TagWork:
			if rk.state == rsDone {
				continue // want `message m may leak: continue ends the iteration while still owned`
			}
			rk.loot += len(m.Nodes)
		case comm.TagNoWork:
			rk.misses++
		}
	}
}

// handle borrows the message: it reads protocol fields only.
func (e *engine) handle(r int, m *comm.Message) {
	rk := &e.ranks[r]
	if m.Tag == comm.TagWork {
		rk.loot += len(m.Nodes)
	}
}

// noteDead borrows too — unlike core's deadLetter, it does not free.
func (e *engine) noteDead(m *comm.Message) {
	e.ranks[m.To].misses++
}
