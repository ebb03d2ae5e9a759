// Package par runs several sim.Kernel instances in parallel under a
// conservative time-window protocol (Chandy–Misra-style lookahead).
//
// The rank set is partitioned across P shards; each shard owns one
// sequential kernel and executes its events with no synchronization
// inside a window [T, T+Δ), where T is the minimum pending event time
// across all shards and Δ (the lookahead) is a lower bound on every
// cross-shard message latency. Because no cross-shard influence can
// arrive earlier than Δ after it was sent, events inside the window are
// causally independent across shards and may run concurrently.
//
// Cross-shard sends are not delivered directly: the sender stages them
// into its shard's outbound queue (one writer per queue, so staging is
// race-free without locks), and the coordinator merges all staged
// entries at the next barrier in a deterministic total order — by
// (deliver time, send time, sender rank, per-shard staging sequence) —
// before scheduling them on the destination kernels. The merge key is
// what makes a run a pure function of (inputs, shard count): the wall
// clock interleaving of the window's goroutines can never reorder two
// staged messages.
//
// Windows the caller flags via Hooks.Serialize execute single-threaded
// on the coordinator goroutine, interleaving the shards' kernels in
// virtual-time order (ties broken by shard index). The engine uses this
// for the rare windows in which a non-local decision (termination
// detection) would otherwise read state that a concurrent shard is
// writing.
//
// All cross-goroutine handoff is by channel: a worker only touches its
// kernel between a window-start receive and a window-done send, and the
// coordinator only touches kernels and staging queues outside that
// span, so every access is ordered by a channel operation and the
// package needs no locks around simulation state.
package par

import (
	"fmt"
	"sort"

	"distws/internal/sim"
)

// stagedEntry is one cross-shard message awaiting barrier merge.
type stagedEntry struct {
	dst    int      // destination shard
	when   sim.Time // delivery time on the destination kernel
	sent   sim.Time // virtual instant of the send
	sender int      // sending rank, for deterministic tie-breaking
	seq    uint64   // per-source-shard staging order (totalizes the key)
	fn     func(any)
	arg    any
	p      sim.Payload // the delivery event's payload
}

// entryKeyLess orders staged entries for injection. The key is total:
// two entries from the same sender carry distinct seq values from the
// same per-shard counter, and entries from different senders differ in
// sender. Sorting by delivery time first keeps destination-kernel
// sequence numbers aligned with delivery order; the (sent, sender)
// refinement reproduces the sequential engine's scheduling order for
// same-instant sends (rank order — the t=0 steal burst being the
// canonical case).
func entryKeyLess(a, b *stagedEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.sent != b.sent {
		return a.sent < b.sent
	}
	if a.sender != b.sender {
		return a.sender < b.sender
	}
	return a.seq < b.seq
}

// mergeSorter adapts the reusable merge scratch slice to sort.Interface
// without a per-barrier allocation (a *mergeSorter fits in an interface
// word).
type mergeSorter struct{ e []stagedEntry }

func (m *mergeSorter) Len() int           { return len(m.e) }
func (m *mergeSorter) Swap(i, j int)      { m.e[i], m.e[j] = m.e[j], m.e[i] }
func (m *mergeSorter) Less(i, j int) bool { return entryKeyLess(&m.e[i], &m.e[j]) }

// WindowInfo describes one barrier's window to Hooks.OnWindow.
type WindowInfo struct {
	// Start and End bound the window [Start, End); End-Start is always
	// the kernel's lookahead.
	Start, End sim.Time
	// Serialized reports the Serialize decision for this window.
	Serialized bool
	// Merged counts the staged cross-shard messages injected at the
	// barrier that opened this window.
	Merged int
	// Pairs, non-nil exactly when Merged > 0, is the src-major
	// shards×shards matrix of those messages (Pairs[src*shards+dst]).
	// It aliases coordinator-owned scratch that is reused at the next
	// barrier: callers must copy or fold it before returning.
	Pairs []uint32
}

// Hooks customizes a Run. The zero value is valid: every window runs in
// parallel and no barrier callback fires.
type Hooks struct {
	// Serialize, if non-nil, is consulted at each barrier after staged
	// messages have been injected; returning true executes the window
	// [start, end) single-threaded on the coordinator goroutine in
	// deterministic merged order. It runs with all workers quiescent, so
	// it may freely inspect shared simulation state.
	Serialize func(start, end sim.Time) bool
	// OnWindow, if non-nil, runs at each barrier (workers quiescent)
	// after staged injection and the Serialize decision, before the
	// window executes. Intended for per-window bookkeeping such as
	// pruning notes about consumed staged messages, or recording a
	// window ledger (internal/obs/parprof).
	OnWindow func(info WindowInfo)
}

// ShardedKernel coordinates P sequential kernels under the conservative
// time-window protocol. Construct with New, wire cross-shard sends
// through Stage, then call Run once.
type ShardedKernel struct {
	kernels   []*sim.Kernel
	lookahead sim.Duration
	// staged[src] is appended only by shard src (its worker goroutine
	// during a parallel window, or the coordinator otherwise) and
	// drained only by the coordinator at barriers.
	staged [][]stagedEntry
	seq    []uint64 // per-source staging counters
	merged mergeSorter
	// pairs is the per-barrier src-major shards×shards message count
	// scratch behind WindowInfo.Pairs; lastMerged is the total counted
	// into it at the most recent barrier (0 leaves the scratch stale,
	// which is fine — OnWindow only sees it when the count is nonzero).
	pairs      []uint32
	lastMerged int
	// windowEnd is the current window's end, written by the coordinator
	// at the barrier (workers quiescent) and read by workers to assert
	// the lookahead contract on every Stage call.
	windowEnd sim.Time
	running   bool
}

// New returns a sharded kernel over `shards` fresh sequential kernels
// with the given lookahead. The lookahead must be a positive lower
// bound on every cross-shard delivery latency the caller will Stage;
// Stage panics when a staged delivery violates it.
func New(shards int, lookahead sim.Duration) *ShardedKernel {
	if shards < 1 {
		panic(fmt.Sprintf("par: shards must be >= 1, got %d", shards))
	}
	if lookahead < 1 {
		panic(fmt.Sprintf("par: lookahead must be >= 1ns, got %d", lookahead))
	}
	s := &ShardedKernel{
		kernels:   make([]*sim.Kernel, shards),
		lookahead: lookahead,
		staged:    make([][]stagedEntry, shards),
		seq:       make([]uint64, shards),
		pairs:     make([]uint32, shards*shards),
	}
	for i := range s.kernels {
		s.kernels[i] = sim.NewKernel()
	}
	return s
}

// Shards returns the shard count.
func (s *ShardedKernel) Shards() int { return len(s.kernels) }

// Kernel returns shard i's sequential kernel. Callers schedule setup
// events and install per-shard time limits directly on it before Run; during
// Run it must only be touched from shard i's own event callbacks (or
// from coordinator-context hooks).
func (s *ShardedKernel) Kernel(i int) *sim.Kernel { return s.kernels[i] }

// WindowEnd returns the end of the window currently executing (zero
// before the first barrier). Written only at barriers with workers
// quiescent, so workers may read it freely during a window; senders use
// it to route intra-shard deliveries due beyond the window through the
// staging merge, keeping same-instant cross- and intra-shard arrivals
// in one deterministic order.
func (s *ShardedKernel) WindowEnd() sim.Time { return s.windowEnd }

// Stage enqueues a barrier-merged delivery: fn(arg), with payload p,
// will be scheduled on shard dst's kernel at virtual time `when`, no
// earlier than the next barrier. src must be the calling shard (the coordinator when
// outside a window), sent the virtual instant of the send, and sender
// the sending rank; (when, sent, sender) plus an internal per-src
// counter form the deterministic merge key. dst == src is legal and
// deliberate: an intra-shard delivery due at or after WindowEnd cannot
// fire this window, and staging it puts it in the same total order as
// the cross-shard messages it may tie with at the destination. Staging
// is race-free by ownership: shard src's queue has exactly one writer.
func (s *ShardedKernel) Stage(src, dst int, when, sent sim.Time, sender int, fn func(any), arg any, p sim.Payload) {
	if s.running && when < s.windowEnd {
		panic(fmt.Sprintf("par: lookahead violation: staged delivery at %d inside window ending %d", when, s.windowEnd))
	}
	s.staged[src] = append(s.staged[src], stagedEntry{
		dst:    dst,
		when:   when,
		sent:   sent,
		sender: sender,
		seq:    s.seq[src],
		fn:     fn,
		arg:    arg,
		p:      p,
	})
	s.seq[src]++
}

// injectStaged merges every staged entry, in deterministic key order,
// into the destination kernels, and reports whether any entry was
// injected. Runs on the coordinator with workers quiescent.
func (s *ShardedKernel) injectStaged() bool {
	if s.lastMerged > 0 {
		for i := range s.pairs {
			s.pairs[i] = 0
		}
	}
	n := 0
	for src := range s.staged {
		n += len(s.staged[src])
	}
	s.lastMerged = n
	if n == 0 {
		return false
	}
	shards := len(s.kernels)
	s.merged.e = s.merged.e[:0]
	for src := range s.staged {
		for i := range s.staged[src] {
			s.pairs[src*shards+s.staged[src][i].dst]++
		}
		s.merged.e = append(s.merged.e, s.staged[src]...)
		s.staged[src] = s.staged[src][:0]
	}
	sort.Sort(&s.merged)
	for i := range s.merged.e {
		e := &s.merged.e[i]
		s.kernels[e.dst].AtPayload(e.when, e.fn, e.arg, e.p)
		e.fn, e.arg = nil, nil // release references promptly
	}
	return true
}

// nextEventTime returns the minimum pending event time across all
// kernels, and false when every queue is empty.
func (s *ShardedKernel) nextEventTime() (sim.Time, bool) {
	var min sim.Time
	ok := false
	for _, k := range s.kernels {
		if t, has := k.PeekTime(); has && (!ok || t < min) {
			min, ok = t, true
		}
	}
	return min, ok
}

// runSerialized executes the window [start, end) single-threaded,
// interleaving the shards' kernels in virtual-time order with ties
// broken by shard index. It advances one virtual instant at a time:
// callers in serialized mode may inject events directly into *other*
// kernels from inside a dispatch (the sharded engine's router does,
// for sub-lookahead cross-shard deliveries), so any longer slice
// computed from a pre-dispatch runner-up peek could overrun an event
// injected behind it. One instant per slice keeps global timestamp
// order without re-peeking mid-slice.
func (s *ShardedKernel) runSerialized(end sim.Time) error {
	for {
		best, bestOK := -1, false
		var bestT sim.Time
		for i, k := range s.kernels {
			if t, has := k.PeekTime(); has && (!bestOK || t < bestT) {
				best, bestT, bestOK = i, t, true
			}
		}
		if !bestOK || bestT >= end {
			return nil
		}
		if err := s.kernels[best].RunUntil(bestT + 1); err != nil {
			return err
		}
	}
}

// workerMsg carries a window outcome (or a propagated panic) from a
// shard worker back to the coordinator. The shard index makes error
// selection deterministic when several shards trip a limit in the same
// window.
type workerMsg struct {
	shard int
	err   error
	panic any
}

// Run executes windows until every kernel's queue is drained and no
// staged messages remain, or an error (sim.ErrTimeLimit) surfaces from
// any shard. A panic inside a shard's event callback is re-raised on the
// Run goroutine. Run may be called once per ShardedKernel.
func (s *ShardedKernel) Run(hooks Hooks) error {
	if s.running {
		return sim.ErrReentrant
	}
	s.running = true
	defer func() { s.running = false }()

	shards := len(s.kernels)
	cmd := make([]chan sim.Time, shards)
	done := make(chan workerMsg, shards)
	for i := 0; i < shards; i++ {
		cmd[i] = make(chan sim.Time)
		go func(shard int, k *sim.Kernel, c chan sim.Time) {
			for end := range c {
				msg := workerMsg{shard: shard}
				func() {
					defer func() { msg.panic = recover() }()
					msg.err = k.RunUntil(end)
				}()
				done <- msg
			}
		}(i, s.kernels[i], cmd[i])
	}
	defer func() {
		for i := 0; i < shards; i++ {
			close(cmd[i])
		}
	}()

	for {
		s.injectStaged()
		start, ok := s.nextEventTime()
		if !ok {
			return nil
		}
		end := start.Add(s.lookahead)
		serialized := hooks.Serialize != nil && hooks.Serialize(start, end)
		if hooks.OnWindow != nil {
			info := WindowInfo{Start: start, End: end, Serialized: serialized, Merged: s.lastMerged}
			if s.lastMerged > 0 {
				info.Pairs = s.pairs
			}
			hooks.OnWindow(info)
		}
		s.windowEnd = end
		if serialized {
			if err := s.runSerialized(end); err != nil {
				return err
			}
			continue
		}
		for i := 0; i < shards; i++ {
			cmd[i] <- end
		}
		var firstErr error
		var firstPanic any
		errShard, panicShard := shards, shards
		for i := 0; i < shards; i++ {
			msg := <-done
			if msg.panic != nil && msg.shard < panicShard {
				firstPanic, panicShard = msg.panic, msg.shard
			}
			if msg.err != nil && msg.shard < errShard {
				firstErr, errShard = msg.err, msg.shard
			}
		}
		if firstPanic != nil {
			panic(firstPanic)
		}
		if firstErr != nil {
			return firstErr
		}
	}
}
