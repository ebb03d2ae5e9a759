// Package comm provides the simulated message-passing substrate the
// work-stealing runtime runs on.
//
// It models the properties of the two-sided MPI communication the
// reference UTS implementation uses on the K Computer:
//
//   - a message from rank i to rank k is visible to k only after the
//     one-way latency given by the topology's latency model;
//   - delivery is passive: a busy receiver observes messages only when
//     it polls its mailbox (matching MPI progress made between node
//     expansions), while an idle receiver — a rank spinning on
//     MPI_Test — takes each message at its delivery instant, either
//     from a notification callback that polls the mailbox or, without
//     touching the mailbox at all, from the network's delivery hook;
//   - per-pair message ordering is preserved (MPI non-overtaking): the
//     latency model is distance-based, so messages between a fixed pair
//     take equal delay and FIFO event dispatch preserves send order.
//
// All traffic is counted, per tag, for the statistics the paper reports
// (steal requests, failures, work transfers).
//
// The send/deliver/poll cycle is the second-hottest loop of the
// simulator (after the event kernel), so the package is written to be
// allocation-free at steady state: Message objects come from a free
// list (returned via Free), the protocol kinds travel in typed union
// fields instead of boxed `any` payloads, delivery is scheduled
// through the kernel's closure-free AfterArg path, and per-rank
// mailboxes are reusable buffers whose backing arrays are released
// once they sit far above the recent high-water occupancy.
package comm

import (
	"fmt"
	"slices"

	"distws/internal/sim"
	"distws/internal/term"
	"distws/internal/topology"
	"distws/internal/uts"
)

// Tag identifies the protocol role of a message.
type Tag uint8

// Protocol tags used by the work-stealing runtime.
const (
	// TagStealRequest is a thief asking a victim for work.
	TagStealRequest Tag = iota
	// TagWork is a victim's positive answer carrying stolen chunks.
	TagWork
	// TagNoWork is a victim's negative answer (failed steal).
	TagNoWork
	// TagToken is the termination-detection token.
	TagToken
	// TagTerminate is the broadcast ending the computation.
	TagTerminate

	numTags
)

func (t Tag) String() string {
	switch t {
	case TagStealRequest:
		return "StealRequest"
	case TagWork:
		return "Work"
	case TagNoWork:
		return "NoWork"
	case TagToken:
		return "Token"
	case TagTerminate:
		return "Terminate"
	default:
		return fmt.Sprintf("Tag(%d)", uint8(t))
	}
}

// Message is one in-flight or delivered message.
//
// The protocol kinds carry their data in the typed union fields (ID,
// Nodes, Token) selected by Tag, so no send boxes a payload into an
// interface.
//
// The struct is laid out as a 64-byte header — everything a steal
// request, a no-work reply or a terminate broadcast carries, and
// everything send and delivery stamp — followed by the bodies only work
// replies and tokens fill. A message sent with SendID lives and is
// recycled in its first cache line (TestMessageHeaderOneLine pins the
// split).
type Message struct {
	From, To int
	Tag      Tag
	// body marks a message whose sender filled a field past the header
	// (Nodes or Token), which Free then has to clear.
	body bool

	// ID correlates a steal request with its reply; it is valid for
	// TagStealRequest, TagWork and TagNoWork.
	ID uint64
	// Size is the modeled wire size in bytes, used for the bandwidth
	// term of the latency model.
	Size        int
	SentAt      sim.Time
	DeliveredAt sim.Time
	// Lineage is the migration depth of a TagWork reply's loot: how many
	// successful steals the work has survived since rank 0's root
	// (depth 0). Thieves record it so steal chains i→j→k are recoverable.
	Lineage int

	// Nodes is the stolen loot of a TagWork reply.
	Nodes []uts.Node
	// Token is the termination-detection token of a TagToken message.
	Token term.Token
}

// Stats aggregates traffic counters. Dropped and Duplicated stay zero
// unless an interposer (fault injection) is installed.
type Stats struct {
	Sent       [numTags]uint64
	Bytes      [numTags]uint64
	Received   [numTags]uint64
	Dropped    [numTags]uint64
	Duplicated [numTags]uint64
}

// TotalSent returns the number of messages sent across all tags.
func (s *Stats) TotalSent() uint64 {
	var t uint64
	for _, v := range s.Sent {
		t += v
	}
	return t
}

// SentByTag returns the number of messages sent with the given tag.
func (s *Stats) SentByTag(tag Tag) uint64 { return s.Sent[tag] }

// TotalDropped returns the number of messages lost in transit across
// all tags (zero without an interposer).
func (s *Stats) TotalDropped() uint64 {
	var t uint64
	for _, v := range s.Dropped {
		t += v
	}
	return t
}

// Interposer sits between send and delivery and decides each message's
// fate: how many copies arrive (0 drops it, 1 is normal transit, 2
// duplicates it) and with what delay. Implementations must be
// deterministic functions of the virtual-time event order — the fault
// injector in internal/fault draws from its own seeded stream. A nil
// interposer is the fast path: send() takes one predicted branch and
// performs no calls or allocations.
type Interposer interface {
	// Outcome inspects an outgoing message and the delay the latency
	// model assigned. It returns the number of copies to deliver and the
	// (possibly inflated) delay. The message is owned by the network;
	// implementations must not retain it.
	Outcome(m *Message, delay sim.Duration) (copies int, newDelay sim.Duration)
}

// mailbox is one rank's delivered-but-unpolled queue: a buffer that
// deliveries fill from the front and Poll drains whole, in delivery
// order. Only deliveries add to it and a poll removes everything, so
// the occupancy seen by Poll is exactly the high-water mark since the
// previous poll.
type mailbox struct {
	buf []*Message // buf[:n] is queued, oldest first
	n   int        // occupancy
	hw  int        // decaying high-water occupancy across recent polls
}

// mailboxShrinkMin is the smallest backing-array capacity worth
// releasing; below it the shrink bookkeeping costs more than the
// memory it could recover.
const mailboxShrinkMin = 64

func (m *mailbox) push(msg *Message) {
	if m.n == len(m.buf) {
		m.grow()
	}
	m.buf[m.n] = msg
	m.n++
}

func (m *mailbox) grow() {
	buf := make([]*Message, max(2*len(m.buf), 8))
	copy(buf, m.buf[:m.n])
	m.buf = buf
}

// drainInto appends the queued messages, oldest first, to out and
// empties the buffer. A drain is also where the peak-capacity fix lives:
// a burst of failed steals can balloon a mailbox to thousands of slots
// that the steady state never fills again, so once the decaying
// high-water occupancy sits far below the backing array's capacity the
// array is released instead of pinning peak memory for the whole run.
func (m *mailbox) drainInto(out []*Message) []*Message {
	out = append(out, m.buf[:m.n]...)
	clear(m.buf[:m.n])
	// Halving decay: hw tracks the largest drain of the recent past and
	// forgets a one-off burst within a few polls.
	m.hw /= 2
	if m.n > m.hw {
		m.hw = m.n
	}
	m.n = 0
	if len(m.buf) >= mailboxShrinkMin && len(m.buf) > 8*m.hw {
		m.buf = nil // re-grown on demand, sized to current traffic
	}
	return out
}

// Network is the simulated interconnect for one job.
type Network struct {
	kernel *sim.Kernel
	job    *topology.Job
	model  topology.LatencyModel

	mailbox []mailbox
	notify  []func()
	stats   Stats

	// interposer, when non-nil, decides per-message drop/duplicate/delay
	// outcomes (fault injection). Nil in fault-free runs.
	interposer Interposer

	// router, when non-nil, is offered every message after the latency
	// model has priced it and may claim it for out-of-band delivery. The
	// sharded engine (internal/sim/par wiring in core) claims messages
	// whose destination rank lives on another shard and re-injects them
	// into the owning shard's kernel at the barrier; the sender's
	// Sent/Bytes counters have already been taken when the router runs.
	// Nil in sequential runs — the hot path costs one predicted branch.
	router func(m *Message, delay sim.Duration) bool

	// hook, when non-nil, is offered every message at its delivery
	// instant, before the mailbox; see SetDeliveryHook.
	hook func(m *Message) bool

	// pool is the Message free list; Free returns messages to it.
	pool []*Message
	// pollBuf is per-rank scratch reused across Poll calls.
	pollBuf [][]*Message
	// deliver is the single delivery callback shared by all sends,
	// scheduled through AfterArg so a send allocates no closure.
	deliver func(any)
}

// New creates a network for the given job over the kernel. The latency
// model must not be nil.
func New(k *sim.Kernel, job *topology.Job, model topology.LatencyModel) *Network {
	if model == nil {
		panic("comm: nil latency model")
	}
	nranks := job.Ranks()
	n := &Network{
		kernel:  k,
		job:     job,
		model:   topology.SendModel(model, job),
		mailbox: make([]mailbox, nranks),
		notify:  make([]func(), nranks),
		pollBuf: make([][]*Message, nranks),
	}
	n.deliver = func(a any) {
		m := a.(*Message)
		m.DeliveredAt = n.kernel.Now()
		if n.hook != nil {
			if tag := m.Tag; n.hook(m) {
				n.stats.Received[tag]++
				return
			}
		}
		n.mailbox[m.To].push(m)
		if fn := n.notify[m.To]; fn != nil {
			fn()
		}
	}
	return n
}

// Ranks returns the number of ranks attached to the network.
func (n *Network) Ranks() int { return len(n.mailbox) }

// Job returns the placed job the network was built for.
func (n *Network) Job() *topology.Job { return n.job }

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats { return n.stats }

// poolSlab is how many messages the pool grows by: one contiguous
// allocation instead of one per message in flight (a steal storm has
// about one request or reply in flight per rank). The last slab is
// mostly slack, so it is kept small next to the 65–100 messages a
// 64-rank sweep run peaks at.
const poolSlab = 16

// alloc takes a zeroed Message from the free list, growing the list by
// a slab when it is empty.
func (n *Network) alloc() *Message {
	if len(n.pool) == 0 {
		slab := make([]Message, poolSlab)
		for i := len(slab) - 1; i >= 0; i-- { // handed out in address order
			n.pool = append(n.pool, &slab[i])
		}
	}
	last := len(n.pool) - 1
	m := n.pool[last]
	n.pool[last] = nil
	n.pool = n.pool[:last]
	return m
}

// Free returns a polled message to the network's free list. Callers
// that retain no reference to a message (or anything it carries) after
// handling it should free it so the steady-state protocol traffic
// recycles a small working set instead of allocating per send. Freeing
// is optional — unfreed messages are simply collected — and a message
// must not be used after it is freed.
//
// The message goes back zeroed, but Free writes only what the sender
// filled: always the header, and the bodies behind it only when
// SendNodes or SendToken marked the message (a duplicate made by
// the interposer inherits its original's mark). Request-id traffic is
// never touched past its first cache line. Free lets go of m.Nodes and
// never reuses the array: it belongs to whoever passed it to SendNodes
// or took it out of the message (an interposer duplicate carries its
// own copy).
func (n *Network) Free(m *Message) {
	if m.body {
		*m = Message{}
	} else {
		m.From, m.To, m.Tag, m.ID = 0, 0, 0, 0
		m.Size, m.SentAt, m.DeliveredAt, m.Lineage = 0, 0, 0, 0
	}
	n.pool = append(n.pool, m)
}

// send queues m for delivery after the model's one-way latency. It is
// valid to send to oneself (used by the token ring at N=1); the
// same-node latency applies.
func (n *Network) send(m *Message) {
	from, to := m.From, m.To
	if to < 0 || to >= len(n.mailbox) {
		panic(fmt.Sprintf("comm: send to invalid rank %d", to))
	}
	m.SentAt = n.kernel.Now()
	n.stats.Sent[m.Tag]++
	n.stats.Bytes[m.Tag] += uint64(m.Size)
	delay := n.model.Latency(n.job, from, to, m.Size)
	if delay < 0 {
		panic(fmt.Sprintf("comm: negative latency %v", delay))
	}
	if delay == 0 {
		// No transfer is instantaneous; a strictly positive delay also
		// prevents degenerate latency models from creating zero-time
		// request/reply livelocks in the simulator.
		delay = 1
	}
	if n.router != nil && n.router(m, delay) {
		// Claimed for cross-shard delivery; the router owns the message
		// until it re-injects it on the destination shard.
		return
	}
	if n.interposer != nil {
		copies, d := n.interposer.Outcome(m, delay)
		if d > 0 {
			delay = d
		}
		if copies <= 0 {
			// Lost in transit: the sent/bytes counters above stand (the
			// bytes hit the wire) but the message never arrives.
			n.stats.Dropped[m.Tag]++
			n.Free(m)
			return
		}
		n.kernel.AfterArg(delay, n.deliver, m)
		for c := 1; c < copies; c++ {
			// Duplicate delivery: the copy rides the same delay and lands
			// right after the original (FIFO event order).
			dup := n.alloc()
			*dup = *m
			// The copy owns its loot: a receiver that recycles a work
			// reply's buffer must not recycle one array twice.
			dup.Nodes = slices.Clone(m.Nodes)
			n.stats.Duplicated[dup.Tag]++
			n.kernel.AfterArg(delay, n.deliver, dup)
		}
		return
	}
	n.kernel.AfterArg(delay, n.deliver, m)
}

// SendID queues a protocol message that carries only a request id:
// steal requests, no-work replies and the terminate broadcast.
func (n *Network) SendID(from, to int, tag Tag, id uint64, size int) {
	m := n.alloc()
	m.From, m.To, m.Tag, m.ID, m.Size = from, to, tag, id, size
	n.send(m)
}

// SendNodes queues a TagWork reply carrying stolen nodes for request id.
// lineage is the loot's migration depth (the victim's depth plus one).
func (n *Network) SendNodes(from, to int, id uint64, nodes []uts.Node, lineage, size int) {
	m := n.alloc()
	m.From, m.To, m.Tag, m.ID, m.Nodes, m.Size = from, to, TagWork, id, nodes, size
	m.Lineage, m.body = lineage, true
	n.send(m)
}

// SendToken queues a TagToken message carrying a termination token.
func (n *Network) SendToken(from, to int, tok term.Token, size int) {
	m := n.alloc()
	m.From, m.To, m.Tag, m.Token, m.Size = from, to, TagToken, tok, size
	m.body = true
	n.send(m)
}

// Poll drains and returns rank's delivered messages in delivery order.
// It returns nil when the mailbox is empty. The returned slice is
// scratch owned by the network: it is valid until the next Poll of the
// same rank, so callers must not retain it. Callers done with a message
// should pass it to Free.
func (n *Network) Poll(rank int) []*Message {
	mb := &n.mailbox[rank]
	if mb.n == 0 {
		return nil
	}
	msgs := mb.drainInto(n.pollBuf[rank][:0])
	n.pollBuf[rank] = msgs[:0]
	for _, m := range msgs {
		n.stats.Received[m.Tag]++
	}
	return msgs
}

// Pending reports whether rank has delivered-but-unpolled messages.
func (n *Network) Pending(rank int) bool { return n.mailbox[rank].n > 0 }

// SetInterposer installs (or, with nil, removes) the message
// interposer consulted on every send. It must be set before traffic
// starts; swapping it mid-run would break replay determinism.
func (n *Network) SetInterposer(ip Interposer) {
	if ip != nil && n.router != nil {
		panic("comm: router and interposer are mutually exclusive")
	}
	n.interposer = ip
}

// SetRouter installs (or, with nil, removes) the cross-shard message
// router consulted on every send. Like the interposer it must be set
// before traffic starts; the two are mutually exclusive (the sharded
// engine rejects fault plans that need an interposer).
func (n *Network) SetRouter(fn func(m *Message, delay sim.Duration) bool) {
	if fn != nil && n.interposer != nil {
		panic("comm: router and interposer are mutually exclusive")
	}
	n.router = fn
}

// SetDeliveryHook installs (or, with nil, removes) the delivery hook:
// fn is called with every message at its delivery instant, after
// DeliveredAt is stamped and before the mailbox sees it. Returning
// true consumes the message — it is counted as received, fn owns it
// (and should Free it), and neither the destination's mailbox nor its
// notify callback is touched. Returning false declines it, and
// delivery proceeds through mailbox, notify and Poll as if no hook
// were installed. A receiver that would poll its mailbox at every
// delivery anyway takes its messages here instead, provided its
// mailbox is empty whenever it consumes (or it would handle messages
// out of delivery order). Like the interposer, the hook must be set
// before traffic starts.
func (n *Network) SetDeliveryHook(fn func(m *Message) bool) { n.hook = fn }

// DeliverFn exposes the network's shared delivery callback so the
// sharded engine can schedule a claimed message on this network's
// kernel (via AtArg at send time + latency): the delivery then stamps
// DeliveredAt and goes to the delivery hook or the destination mailbox
// and its notify exactly as a local send would.
func (n *Network) DeliverFn() func(any) { return n.deliver }

// SetNotify installs fn to be invoked (at delivery virtual time)
// whenever a message is delivered to rank. Passing nil uninstalls it.
// The callback fires for every delivery, including ones that land while
// a previous callback's messages are still unpolled; receivers must
// tolerate spurious wakeups.
func (n *Network) SetNotify(rank int, fn func()) { n.notify[rank] = fn }
