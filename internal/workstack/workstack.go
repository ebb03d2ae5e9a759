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
// boundaries, oldest node first. A stack takes segments from a Pool
// and hands back every one it empties: an empty stack holds none.
//
// The stack is single-owner: in the discrete-event simulation each rank
// manipulates its own stack only (steals happen via messages, with the
// victim packaging chunks itself, as in the paper's two-sided MPI
// implementation); a Pool and the stacks sharing it are one goroutine's.
package workstack

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

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

// Pool holds the segments no stack holds. The zero Pool is empty.
type Pool []*segment

func (p *Pool) get() (seg *segment) {
	if n := len(*p) - 1; n >= 0 {
		seg, *p = (*p)[n], (*p)[:n]
		return seg
	}
	return new(segment)
}

func (p *Pool) put(seg *segment) { *p = append(*p, seg) }

// Bytes returns the size of the segments the pool holds.
func (p Pool) Bytes() int { return len(p) * int(unsafe.Sizeof(segment{})) }

// Stack is a chunked LIFO work stack. The zero Stack is not usable:
// construct with New, or Init one embedded by value in a larger struct.
type Stack struct {
	// top is the newest segment up to its newest node: Push appends to
	// it and Pop shrinks it. It spans a whole segment (capacity
	// segNodes) while the stack holds a node and is nil while it holds
	// none. The header comes first and the counts a thief's request asks
	// an idle victim for (Empty, StealableChunks) follow within the
	// Stack's first 64 bytes.
	top []uts.Node
	// below lists the full segments under top, oldest first — none while
	// the stack fits one segment, so a stack that never holds more than
	// segNodes nodes never allocates the list.
	below []*segment
	// head counts the nodes at the start of the oldest segment that are
	// gone: a steal removes chunkSize-node chunks, not whole segments.
	// Always < segNodes.
	head int32
	n    int32 // nodes on the stack

	chunkSize int32
	pool      *Pool
	acquired  uint64 // chunks received from victims
}

// New returns an empty stack with the given chunk size (nodes per
// chunk) over a pool of its own. It panics if chunkSize is not in
// [1, MaxChunkSize].
func New(chunkSize int) *Stack {
	s := new(Stack)
	s.Init(chunkSize, new(Pool))
	return s
}

// Init makes s an empty stack with the given chunk size over pool p,
// for a Stack held by value (a slab of per-rank state) rather than
// allocated on its own. It panics if chunkSize is not in
// [1, MaxChunkSize].
func (s *Stack) Init(chunkSize int, p *Pool) {
	if chunkSize < 1 || chunkSize > MaxChunkSize {
		panic(fmt.Sprintf("workstack: chunk size %d not in [1, %d]", chunkSize, MaxChunkSize))
	}
	*s = Stack{chunkSize: int32(chunkSize), pool: p}
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

// grow opens a new top segment over a full top, or over an empty stack.
func (s *Stack) grow() {
	if s.top != nil {
		s.below = append(s.below, (*segment)(s.top))
	}
	s.top = s.pool.get()[:0]
}

// shrink follows a removal at the top that emptied the stack or the top
// segment: the segment goes back to the pool and the newest full one,
// if any, becomes the top.
func (s *Stack) shrink() {
	s.pool.put((*segment)(s.top[:segNodes]))
	if s.n == 0 {
		s.head = 0
		s.top = nil
		return
	}
	l := len(s.below) - 1
	s.top = s.below[l][:]
	s.below = s.below[:l]
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
	s.n++
}

// Pop removes and returns the most recently pushed node.
func (s *Stack) Pop() (n uts.Node, ok bool) {
	if s.n == 0 {
		return n, false
	}
	l := len(s.top) - 1
	n = s.top[l]
	s.top = s.top[:l]
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
	// never top's, which holds the private chunk's newest node — go
	// back to the pool.
	head := int(s.head) + count
	if drop := head / segNodes; drop > 0 {
		for _, seg := range s.below[:drop] {
			s.pool.put(seg)
		}
		s.below = s.below[:copy(s.below, s.below[drop:])]
	}
	s.head = int32(head % segNodes)
	s.n -= int32(count)
	return dst, want
}

// StealHalf removes half of the stealable chunks, rounded up — the
// strategy of paper §IV-C ("stealing half the work of the victim is an
// optimal strategy").
func (s *Stack) StealHalf() ([]uts.Node, int) {
	return s.StealInto(nil, (s.StealableChunks()+1)/2)
}

// Drop is Clear that returns dst with the lost nodes appended, oldest
// first. It exists for fault injection: a fail-stop crash takes the
// rank's local work with it. No lifetime counter moves: dropped nodes
// were pushed and never popped, which is how a crash looks from outside.
func (s *Stack) Drop(dst []uts.Node) []uts.Node {
	defer s.Clear()
	return s.appendNodes(dst, 0, int(s.n))
}

// Clear discards every node on the stack and returns its segments to
// the pool.
func (s *Stack) Clear() {
	for _, seg := range s.below {
		s.pool.put(seg)
	}
	if s.n > 0 {
		s.below, s.n = s.below[:0], 0
		s.shrink()
	}
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
	s.n += int32(count)
	s.acquired += uint64((count + int(s.chunkSize) - 1) / int(s.chunkSize))
}

// ChunksAcquired returns how many chunks the stack has received from
// victims.
func (s *Stack) ChunksAcquired() uint64 { return s.acquired }
