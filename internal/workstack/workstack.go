// Package workstack implements the chunked work stack of the reference
// UTS work-stealing implementation.
//
// Work items (tree nodes) are managed in fixed-size chunks (default 20
// nodes, the UTS default the paper keeps), and the chunk is the steal
// granularity. The top chunk — the one the owner is pushing to and
// popping from — is always private: a stack holding a single
// (possibly incomplete) chunk has nothing to steal. Thieves take whole
// chunks from the bottom of the stack, which holds the oldest, usually
// shallowest nodes, whose subtrees tend to be the largest.
//
// Chunks are arithmetic, not memory. Every chunk but the top one is
// full — pushes and pops touch only the top, steals remove whole chunks
// from the bottom — so the chunk boundaries follow from the node count
// alone: Chunks is ceil(n / chunkSize), and the oldest chunk is the
// chunkSize oldest nodes. The nodes themselves live in storage segments
// of segNodes nodes, a constant that does not depend on the chunk size;
// the slice header of the top segment sits in the Stack, so a push or a
// pop reaches its node in one load and crosses a segment once in
// segNodes operations. A steal copies its chunks out across segment
// boundaries, oldest node first. A stack keeps the segments it empties
// for the next time it is as deep — it never allocates below its
// high-water mark — and gives them up only when a crash drops it.
//
// The stack is single-owner: in the discrete-event simulation each rank
// manipulates its own stack only (steals happen via messages, with the
// victim packaging chunks itself, as in the paper's two-sided MPI
// implementation). The concurrent shared-memory variant lives in
// package rt.
package workstack

import (
	"fmt"
	"math"
	"slices"

	"distws/internal/uts"
)

// DefaultChunkSize is the UTS default of 20 nodes per chunk; the paper
// keeps this value throughout ("the authors of UTS have previously
// stated that this size provides good performance").
const DefaultChunkSize = 20

// MaxChunkSize is the largest chunk size a Stack accepts: its node
// counts are 32-bit.
const MaxChunkSize = math.MaxInt32

// segNodes is the storage granularity: 16 nodes, 448 bytes. Larger
// segments save a little time on a deep stack and cost every rank that
// ever holds a node the whole segment; DESIGN.md §10 has the numbers.
const segNodes = 16

type segment = [segNodes]uts.Node

// Stack is a chunked LIFO work stack. The zero Stack is not usable:
// construct with New, or Init one embedded by value in a larger struct.
type Stack struct {
	// top is the newest segment up to its newest node: Push appends to
	// it and Pop shrinks it, it always spans a whole segment (capacity
	// segNodes) once the stack has held a node, and it keeps its segment
	// while the stack is empty. The header comes first and the counts a
	// thief's request asks an idle victim for (Empty, StealableChunks)
	// follow within the Stack's first 64 bytes.
	top []uts.Node
	// below lists the full segments under top, oldest first — none while
	// the stack fits one segment, so a stack that never holds more than
	// segNodes nodes never allocates the list. The segments pops and
	// steals have emptied stay, as spares, in the slots just past
	// len(below) of the backing array: a stack's storage is its deepest
	// point so far, and one that goes down and up again allocates
	// nothing.
	below []*segment
	// head counts the nodes at the start of the oldest segment that are
	// gone: a steal removes chunkSize-node chunks, not whole segments.
	// Always < segNodes.
	head int32
	n    int32 // nodes on the stack

	chunkSize int32
	maxNodes  int32

	// Counters for UTS-style statistics.
	pushes, pops uint64
	released     uint64 // chunks handed to thieves
	acquired     uint64 // chunks received from victims
}

// New returns an empty stack with the given chunk size (nodes per
// chunk). It panics if chunkSize is not in [1, MaxChunkSize].
func New(chunkSize int) *Stack {
	s := new(Stack)
	s.Init(chunkSize)
	return s
}

// Init makes s an empty stack with the given chunk size, as New returns
// it, for a Stack held by value (a slab of per-rank state) rather than
// allocated on its own. It panics if chunkSize is not in
// [1, MaxChunkSize].
func (s *Stack) Init(chunkSize int) {
	if chunkSize < 1 || chunkSize > MaxChunkSize {
		panic(fmt.Sprintf("workstack: chunk size %d not in [1, %d]", chunkSize, MaxChunkSize))
	}
	*s = Stack{chunkSize: int32(chunkSize)}
}

// ChunkSize returns the configured nodes-per-chunk.
func (s *Stack) ChunkSize() int { return int(s.chunkSize) }

// Len returns the total number of nodes on the stack.
func (s *Stack) Len() int { return int(s.n) }

// Empty reports whether the stack holds no nodes.
func (s *Stack) Empty() bool { return s.n == 0 }

// Chunks returns the number of chunks on the stack, counting a partial
// top chunk.
func (s *Stack) Chunks() int {
	return (int(s.n) + int(s.chunkSize) - 1) / int(s.chunkSize)
}

// grow opens a new top segment — a spare if there is one — over a full
// top, or the first segment of a stack that never held a node.
func (s *Stack) grow() {
	var seg *segment
	if s.top != nil {
		l := len(s.below)
		if l < cap(s.below) {
			seg = s.below[:l+1][l]
		}
		s.below = append(s.below, (*segment)(s.top)) // over that spare's slot
	}
	if seg == nil {
		seg = new(segment)
	}
	s.top = seg[:0]
}

// shrink follows a removal at the top that emptied the stack or the top
// segment. An empty stack keeps the segment top spans; an emptied top
// becomes the first spare and the newest full segment takes its place.
func (s *Stack) shrink() {
	if s.n == 0 {
		s.head = 0
		s.top = s.top[:0]
		return
	}
	l := len(s.below) - 1
	seg := s.below[l]
	s.below[l] = (*segment)(s.top[:segNodes])
	s.below = s.below[:l]
	s.top = seg[:]
}

// Push adds a node to the top of the stack.
func (s *Stack) Push(n uts.Node) {
	l := len(s.top)
	if l == cap(s.top) {
		s.grow()
		l = 0
	}
	s.top = s.top[:l+1]
	s.top[l] = n
	s.pushes++
	s.n++
	if s.n > s.maxNodes {
		s.maxNodes = s.n
	}
}

// Pop removes and returns the most recently pushed node.
func (s *Stack) Pop() (n uts.Node, ok bool) {
	if s.n == 0 {
		return n, false
	}
	l := len(s.top) - 1
	n = s.top[l]
	s.top = s.top[:l]
	s.pops++
	s.n--
	if l == 0 || s.n == 0 {
		s.shrink()
	}
	return n, true
}

// StealableChunks returns how many chunks a thief could take right now:
// all full chunks below the private top chunk.
func (s *Stack) StealableChunks() int {
	if s.n <= s.chunkSize {
		return 0
	}
	return int((s.n - 1) / s.chunkSize)
}

// appendNodes appends the count nodes from the pos-th oldest on to dst.
func (s *Stack) appendNodes(dst []uts.Node, pos, count int) []uts.Node {
	pos += int(s.head)
	for count > 0 {
		seg := s.top
		if i := pos / segNodes; i < len(s.below) {
			seg = s.below[i][:]
		}
		off := pos % segNodes
		k := min(segNodes-off, count)
		dst = append(dst, seg[off:off+k]...)
		pos += k
		count -= k
	}
	return dst
}

// StealInto removes up to want chunks from the bottom of the stack and
// appends their nodes to dst, oldest first. It returns the extended
// slice and the number of chunks taken: fewer than want when fewer are
// stealable, none (and dst as it came) when nothing is. The top chunk
// is never taken. A caller that recycles dst makes a steal
// allocation-free.
func (s *Stack) StealInto(dst []uts.Node, want int) ([]uts.Node, int) {
	want = min(want, s.StealableChunks())
	if want <= 0 {
		return dst, 0
	}
	count := want * int(s.chunkSize)
	dst = s.appendNodes(slices.Grow(dst, count), 0, count)
	// The chunks came out of the oldest segments. Those they emptied —
	// never top's, which holds the private chunk's newest node — rotate
	// behind the full ones, where they are the first spares.
	head := int(s.head) + count
	if drop := head / segNodes; drop > 0 {
		slices.Reverse(s.below[:drop])
		slices.Reverse(s.below[drop:])
		slices.Reverse(s.below)
		s.below = s.below[:len(s.below)-drop]
	}
	s.head = int32(head % segNodes)
	s.n -= int32(count)
	s.released += uint64(want)
	return dst, want
}

// Steal removes up to want chunks from the bottom of the stack and
// returns their nodes flattened, oldest chunk first, along with the
// number of chunks taken. It takes fewer than want when fewer are
// stealable, and nil when nothing is stealable. The top chunk is never
// taken.
func (s *Stack) Steal(want int) ([]uts.Node, int) { return s.StealInto(nil, want) }

// StealOne removes the bottom chunk, the paper's reference steal
// granularity ("a thief will steal a single chunk of nodes").
func (s *Stack) StealOne() ([]uts.Node, int) { return s.Steal(1) }

// StealHalf removes half of the stealable chunks, rounded up — the
// strategy of paper §IV-C ("stealing half the work of the victim is an
// optimal strategy").
func (s *Stack) StealHalf() ([]uts.Node, int) {
	return s.Steal((s.StealableChunks() + 1) / 2)
}

// Drop discards every node on the stack and returns dst with the lost
// nodes appended, oldest first. It exists for fault injection: a
// fail-stop crash takes the rank's local work with it. Every segment
// but top's is let go (the rank will not work again), but no lifetime
// counter moves: dropped nodes were pushed and never popped, which is
// exactly how a crash looks from the outside.
func (s *Stack) Drop(dst []uts.Node) []uts.Node {
	lost := s.appendNodes(dst, 0, int(s.n))
	clear(s.below[:cap(s.below)])
	s.below = s.below[:0]
	s.n = 0
	s.shrink()
	return lost
}

// TakeTop removes and returns the top chunk regardless of the
// private-chunk rule. It exists for owners reclaiming work from their
// own shared stack (package rt): the private-top rule protects a chunk
// the owner is working from, which does not apply to a stack used only
// as a transfer area — without this bypass the final chunk would be
// unreachable by owner (Steal refuses it) and thieves alike.
func (s *Stack) TakeTop() ([]uts.Node, bool) {
	if s.n == 0 {
		return nil, false
	}
	count := int((s.n-1)%s.chunkSize) + 1
	out := s.appendNodes(make([]uts.Node, 0, count), int(s.n)-count, count)
	s.pops += uint64(count)
	for count > 0 {
		k := min(count, len(s.top))
		s.top = s.top[:len(s.top)-k]
		s.n -= int32(k)
		count -= k
		if len(s.top) == 0 || s.n == 0 {
			s.shrink()
		}
	}
	return out, true
}

// Acquire pushes stolen nodes onto the stack, preserving their order
// (they arrive oldest-first and are pushed bottom-up so the thief pops
// the newest stolen node first, as the reference implementation does).
// The nodes are copied: the caller keeps nodes' backing array.
func (s *Stack) Acquire(nodes []uts.Node) {
	count := len(nodes)
	for len(nodes) > 0 {
		l := len(s.top)
		if l == cap(s.top) {
			s.grow()
			l = 0
		}
		k := copy(s.top[l:cap(s.top)], nodes)
		s.top = s.top[:l+k]
		nodes = nodes[k:]
	}
	s.pushes += uint64(count)
	s.n += int32(count)
	if s.n > s.maxNodes {
		s.maxNodes = s.n
	}
	s.acquired += uint64((count + int(s.chunkSize) - 1) / int(s.chunkSize))
}

// Stats are lifetime counters of the stack.
type Stats struct {
	Pushes, Pops     uint64
	ChunksReleased   uint64
	ChunksAcquired   uint64
	MaxNodesResident int
}

// Stats returns the stack's lifetime counters.
func (s *Stack) Stats() Stats {
	return Stats{
		Pushes:           s.pushes,
		Pops:             s.pops,
		ChunksReleased:   s.released,
		ChunksAcquired:   s.acquired,
		MaxNodesResident: int(s.maxNodes),
	}
}
