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
// allocation-free at steady state. A message in flight is its delivery
// event: the Header — tag, source, destination and request id packed
// into two words — rides in the kernel's event node (sim.Payload), so a
// steal request, a no-work reply or a terminate broadcast has no object
// at all. Only a body (a work reply's loot, a token) takes a Message
// from the network's free list. At delivery the network fills the
// header into the body, or into its one reusable view for a bodiless
// message, and offers it to the delivery hook; a declined view is
// copied into a pooled Message for the mailbox. Free returns pooled
// messages and ignores the view. Per-rank mailboxes are reusable
// buffers whose backing arrays are released once they sit far above
// the recent high-water occupancy.
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

// Message is a delivered message, as the delivery hook and Poll hand it
// out.
//
// The protocol kinds carry their data in the typed union fields (ID,
// Nodes, Token) selected by Tag, so no send boxes a payload into an
// interface. The fields delivery fills from the Header come first, in
// one cache line with the pool mark (TestMessageHeaderOneLine); the
// bodies only work replies and tokens carry follow.
type Message struct {
	From, To int
	Tag      Tag
	// pooled marks a message from the free list — a body, or a declined
	// view's mailbox copy — which Free returns; the view is not. body
	// marks one whose sender filled a field past the header (Nodes,
	// Token, Lineage), which Free then has to clear.
	pooled, body bool

	// ID correlates a steal request with its reply; it is valid for
	// TagStealRequest, TagWork and TagNoWork.
	ID          uint64
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

// Header is a message in flight: the two words its delivery event
// carries in the kernel's event node. Pack and Unpack are the only code
// that knows the layout — the tag, the source rank and the destination
// rank share the first word, the request id is the second.
type Header sim.Payload

// rankBits is the width of each rank in a header's first word; the tag
// takes the 8 bits above the two ranks.
const rankBits = 28

// MaxRanks is the number of ranks a header can address, ranks 0 to
// MaxRanks-1. New refuses a larger job, and core's Config.Validate a
// larger rank count, so no rank is ever truncated.
const MaxRanks = 1 << rankBits

// Pack builds the header of a message from rank from to rank to. Both
// ranks must lie in [0, MaxRanks).
func Pack(tag Tag, from, to int, id uint64) Header {
	return Header{A: uint64(tag)<<(2*rankBits) | uint64(from)<<rankBits | uint64(to), B: id}
}

// Unpack returns the fields Pack packed.
func (h Header) Unpack() (tag Tag, from, to int, id uint64) {
	const mask = MaxRanks - 1
	return Tag(h.A >> (2 * rankBits)), int(h.A >> rankBits & mask), int(h.A & mask), h.B
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
	// Outcome inspects an outgoing message — its header, its body (nil
	// for a message without one) — and the delay the latency model
	// assigned. It returns the number of copies to deliver and the
	// (possibly inflated) delay. The body is owned by the network;
	// implementations must not retain it.
	Outcome(h Header, body *Message, delay sim.Duration) (copies int, newDelay sim.Duration)
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
	router func(h Header, body *Message, delay sim.Duration) bool

	// hook, when non-nil, is offered every message at its delivery
	// instant, before the mailbox; see SetDeliveryHook.
	hook func(m *Message) bool

	// view is what a bodiless message is delivered as: filled from the
	// header at each delivery, valid until the hook returns.
	view Message
	// pool is the Message free list; Free returns messages to it.
	pool []*Message
	// pollBuf is per-rank scratch reused across Poll calls.
	pollBuf [][]*Message
	// deliver is the single delivery callback shared by all sends: its
	// argument is the body (a nil *Message for none), its event's
	// payload the header.
	deliver func(any)
}

// New creates a network for the given job over the kernel. The latency
// model must not be nil.
func New(k *sim.Kernel, job *topology.Job, model topology.LatencyModel) *Network {
	if model == nil {
		panic("comm: nil latency model")
	}
	nranks := job.Ranks()
	if nranks > MaxRanks {
		panic(fmt.Sprintf("comm: %d ranks, a header addresses at most %d", nranks, MaxRanks))
	}
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
		if m == nil {
			m = &n.view
		}
		tag, from, to, id := Header(n.kernel.Payload()).Unpack()
		m.From, m.To, m.Tag, m.ID, m.DeliveredAt = from, to, tag, id, n.kernel.Now()
		if n.hook != nil && n.hook(m) {
			n.stats.Received[tag]++
			return
		}
		if !m.pooled {
			c := n.alloc()
			c.From, c.To, c.Tag, c.ID, c.DeliveredAt = from, to, tag, id, m.DeliveredAt
			m = c
		}
		n.mailbox[to].push(m)
		if fn := n.notify[to]; fn != nil {
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
// allocation instead of one per pooled message — work replies and
// tokens in flight, declined messages waiting in mailboxes. The last
// slab is mostly slack, so it is kept small.
const poolSlab = 16

// alloc takes a Message from the free list, zeroed but for its pool
// mark, growing the list by a slab when it is empty.
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
	m.pooled = true
	return m
}

// Free releases a handled message: the delivery hook's, or one from
// Poll. Callers should free every message exactly once when they are
// done with it and retain nothing it carries. A pooled message — a
// body, or the mailbox copy of a message without one — goes back to
// the free list zeroed, so the steady-state traffic recycles a small
// working set instead of allocating per send; the delivery view of a
// bodiless message is left alone. Freeing is optional — unfreed
// messages are simply collected — and a message must not be used after
// it is freed. Free writes only what was filled: the bodies past the
// header only when SendNodes or SendToken marked the message (a
// duplicate made by the interposer inherits its original's mark). Free
// lets go of m.Nodes and never reuses the array: it belongs to whoever
// passed it to SendNodes or took it out of the message (an interposer
// duplicate carries its own copy).
func (n *Network) Free(m *Message) {
	switch {
	case !m.pooled:
		return
	case m.body:
		*m = Message{}
	default:
		m.From, m.To, m.Tag, m.ID, m.DeliveredAt, m.pooled = 0, 0, 0, 0, 0, false
	}
	n.pool = append(n.pool, m)
}

// send queues a message for delivery after the model's one-way latency:
// its header goes in the delivery event's payload, its body (nil for
// none) in the event's argument. It is valid to send to oneself (used
// by the token ring at N=1); the same-node latency applies.
func (n *Network) send(tag Tag, from, to int, id uint64, size int, body *Message) {
	if uint(to) >= uint(len(n.mailbox)) || uint(from) >= uint(len(n.mailbox)) {
		panic(fmt.Sprintf("comm: send from rank %d to rank %d of %d", from, to, len(n.mailbox)))
	}
	n.stats.Sent[tag]++
	n.stats.Bytes[tag] += uint64(size)
	delay := n.model.Latency(n.job, from, to, size)
	if delay < 0 {
		panic(fmt.Sprintf("comm: negative latency %v", delay))
	}
	if delay == 0 {
		// No transfer is instantaneous; a strictly positive delay also
		// prevents degenerate latency models from creating zero-time
		// request/reply livelocks in the simulator.
		delay = 1
	}
	h := Pack(tag, from, to, id)
	if n.router != nil && n.router(h, body, delay) {
		// Claimed for cross-shard delivery; the router owns the message
		// until it re-injects it on the destination shard.
		return
	}
	if n.interposer != nil {
		n.interpose(h, body, delay)
		return
	}
	n.kernel.AfterPayload(delay, n.deliver, body, sim.Payload(h))
}

// interpose sends a message through the interposer, which may drop it,
// delay it or duplicate it.
func (n *Network) interpose(h Header, body *Message, delay sim.Duration) {
	copies, d := n.interposer.Outcome(h, body, delay)
	if d > 0 {
		delay = d
	}
	tag, _, _, _ := h.Unpack()
	if copies <= 0 {
		// Lost in transit: the sent/bytes counters stand (the bytes hit
		// the wire) but the message never arrives.
		n.stats.Dropped[tag]++
		if body != nil {
			n.Free(body)
		}
		return
	}
	n.kernel.AfterPayload(delay, n.deliver, body, sim.Payload(h))
	for c := 1; c < copies; c++ {
		// Duplicate delivery: the copy rides the same delay and lands
		// right after the original (FIFO event order). A bodiless copy
		// is the header again.
		dup := body
		if body != nil {
			dup = n.alloc()
			*dup = *body
			// The copy owns its loot: a receiver that recycles a work
			// reply's buffer must not recycle one array twice.
			dup.Nodes = slices.Clone(body.Nodes)
		}
		n.stats.Duplicated[tag]++
		n.kernel.AfterPayload(delay, n.deliver, dup, sim.Payload(h))
	}
}

// SendID queues a protocol message that carries only a request id:
// steal requests, no-work replies and the terminate broadcast. It
// takes no object from the pool: the message travels as its header.
func (n *Network) SendID(from, to int, tag Tag, id uint64, size int) {
	n.send(tag, from, to, id, size, nil)
}

// SendNodes queues a TagWork reply carrying stolen nodes for request id.
// lineage is the loot's migration depth (the victim's depth plus one).
func (n *Network) SendNodes(from, to int, id uint64, nodes []uts.Node, lineage, size int) {
	m := n.alloc()
	m.Nodes, m.Lineage, m.body = nodes, lineage, true
	n.send(TagWork, from, to, id, size, m)
}

// SendToken queues a TagToken message carrying a termination token.
func (n *Network) SendToken(from, to int, tok term.Token, size int) {
	m := n.alloc()
	m.Token, m.body = tok, true
	n.send(TagToken, from, to, 0, size, m)
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
// router consulted on every send with the message's header, its body
// (nil for none) and its delay. Like the interposer it must be set
// before traffic starts; the two are mutually exclusive (the sharded
// engine rejects fault plans that need an interposer).
func (n *Network) SetRouter(fn func(h Header, body *Message, delay sim.Duration) bool) {
	if fn != nil && n.interposer != nil {
		panic("comm: router and interposer are mutually exclusive")
	}
	n.router = fn
}

// SetDeliveryHook installs (or, with nil, removes) the delivery hook:
// fn is called with every message at its delivery instant, after its
// header is filled in and DeliveredAt stamped, before the mailbox sees
// it. A message without a body is the network's reusable view, valid
// until fn returns — the contract Poll's scratch has. Returning true
// consumes the message — it is counted as received, fn owns it (and
// should Free it), and neither the destination's mailbox nor its
// notify callback is touched. Returning false declines it, and
// delivery proceeds through mailbox, notify and Poll as if no hook
// were installed (a view is copied into the mailbox, header and
// delivery order intact). A receiver that would poll its mailbox at every
// delivery anyway takes its messages here instead, provided its
// mailbox is empty whenever it consumes (or it would handle messages
// out of delivery order). Like the interposer, the hook must be set
// before traffic starts.
func (n *Network) SetDeliveryHook(fn func(m *Message) bool) { n.hook = fn }

// DeliverFn exposes the network's shared delivery callback so the
// sharded engine can schedule a claimed message on this network's
// kernel (via AtPayload at send time + latency, the body as argument
// and the header as payload): the delivery then fills the header,
// stamps DeliveredAt and goes to the delivery hook or the destination
// mailbox and its notify exactly as a local send would.
func (n *Network) DeliverFn() func(any) { return n.deliver }

// SetNotify installs fn to be invoked (at delivery virtual time)
// whenever a message is delivered to rank. Passing nil uninstalls it.
// The callback fires for every delivery, including ones that land while
// a previous callback's messages are still unpolled; receivers must
// tolerate spurious wakeups.
func (n *Network) SetNotify(rank int, fn func()) { n.notify[rank] = fn }
