// Package workstack implements the chunked work stack of the reference
// UTS work-stealing implementation.
//
// Work items (tree nodes) are managed in fixed-size chunks (default 20
// nodes, the UTS default the paper keeps): memory is allocated per
// chunk rather than per node, and the chunk is also the steal
// granularity. The top chunk — the one the owner is pushing to and
// popping from — is always private: a stack holding a single
// (possibly incomplete) chunk has nothing to steal. Thieves take whole
// chunks from the bottom of the stack, which holds the oldest, usually
// shallowest nodes, whose subtrees tend to be the largest.
//
// The stack is single-owner: in the discrete-event simulation each rank
// manipulates its own stack only (steals happen via messages, with the
// victim packaging chunks itself, as in the paper's two-sided MPI
// implementation). The concurrent shared-memory variant lives in
// package rt.
package workstack

import (
	"fmt"

	"distws/internal/uts"
)

// DefaultChunkSize is the UTS default of 20 nodes per chunk; the paper
// keeps this value throughout ("the authors of UTS have previously
// stated that this size provides good performance").
const DefaultChunkSize = 20

// Stack is a chunked LIFO work stack. The zero Stack is not usable:
// construct with New, or Init one embedded by value in a larger struct.
type Stack struct {
	// chunks[0] is the bottom (steal end); chunks[len-1] is the top
	// (work end). Every chunk except the top one is full. The header
	// comes first so that the questions a thief's request asks of an
	// idle victim — Empty, StealableChunks — read the Stack's first
	// word-triple and nothing else.
	chunks    [][]uts.Node
	chunkSize int
	// free is a small recycling pool of chunk buffers.
	free [][]uts.Node

	// Counters for UTS-style statistics.
	pushes, pops uint64
	released     uint64 // chunks handed to thieves
	acquired     uint64 // chunks received from victims
	maxNodes     int
}

// New returns an empty stack with the given chunk size (nodes per
// chunk). It panics if chunkSize < 1.
func New(chunkSize int) *Stack {
	s := new(Stack)
	s.Init(chunkSize)
	return s
}

// Init makes s an empty stack with the given chunk size, as New returns
// it, for a Stack held by value (a slab of per-rank state) rather than
// allocated on its own. It panics if chunkSize < 1.
func (s *Stack) Init(chunkSize int) {
	if chunkSize < 1 {
		panic(fmt.Sprintf("workstack: chunk size %d < 1", chunkSize))
	}
	*s = Stack{chunkSize: chunkSize}
}

// ChunkSize returns the configured nodes-per-chunk.
func (s *Stack) ChunkSize() int { return s.chunkSize }

// Len returns the total number of nodes on the stack.
func (s *Stack) Len() int {
	if len(s.chunks) == 0 {
		return 0
	}
	return (len(s.chunks)-1)*s.chunkSize + len(s.chunks[len(s.chunks)-1])
}

// Empty reports whether the stack holds no nodes.
func (s *Stack) Empty() bool { return len(s.chunks) == 0 }

// Chunks returns the number of chunks on the stack, counting a partial
// top chunk.
func (s *Stack) Chunks() int { return len(s.chunks) }

// newChunk returns an empty chunk buffer, recycling freed ones.
func (s *Stack) newChunk() []uts.Node {
	if n := len(s.free); n > 0 {
		c := s.free[n-1]
		s.free = s.free[:n-1]
		return c[:0]
	}
	return make([]uts.Node, 0, s.chunkSize)
}

func (s *Stack) recycle(c []uts.Node) {
	if len(s.free) < 32 {
		s.free = append(s.free, c[:0])
	}
}

// Push adds a node to the top of the stack.
func (s *Stack) Push(n uts.Node) {
	top := len(s.chunks) - 1
	if top < 0 || len(s.chunks[top]) == s.chunkSize {
		s.chunks = append(s.chunks, s.newChunk())
		top++
	}
	s.chunks[top] = append(s.chunks[top], n)
	s.pushes++
	if l := s.Len(); l > s.maxNodes {
		s.maxNodes = l
	}
}

// Pop removes and returns the most recently pushed node.
func (s *Stack) Pop() (uts.Node, bool) {
	top := len(s.chunks) - 1
	if top < 0 {
		return uts.Node{}, false
	}
	c := s.chunks[top]
	n := c[len(c)-1]
	c = c[:len(c)-1]
	if len(c) == 0 {
		s.recycle(s.chunks[top])
		s.chunks[top] = nil
		s.chunks = s.chunks[:top]
	} else {
		s.chunks[top] = c
	}
	s.pops++
	return n, true
}

// StealableChunks returns how many chunks a thief could take right now:
// all full chunks below the private top chunk.
func (s *Stack) StealableChunks() int {
	if len(s.chunks) <= 1 {
		return 0
	}
	return len(s.chunks) - 1
}

// Steal removes up to want chunks from the bottom of the stack and
// returns their nodes flattened, oldest chunk first, along with the
// number of chunks taken. It takes fewer than want when fewer are
// stealable, and nil when nothing is stealable. The top chunk is never
// taken.
func (s *Stack) Steal(want int) ([]uts.Node, int) {
	avail := s.StealableChunks()
	if want > avail {
		want = avail
	}
	if want <= 0 {
		return nil, 0
	}
	out := make([]uts.Node, 0, want*s.chunkSize)
	for i := 0; i < want; i++ {
		out = append(out, s.chunks[i]...)
	}
	for i := 0; i < want; i++ {
		s.recycle(s.chunks[i])
	}
	rest := copy(s.chunks, s.chunks[want:])
	for i := rest; i < len(s.chunks); i++ {
		s.chunks[i] = nil
	}
	s.chunks = s.chunks[:rest]
	s.released += uint64(want)
	return out, want
}

// StealOne removes the bottom chunk, the paper's reference steal
// granularity ("a thief will steal a single chunk of nodes").
func (s *Stack) StealOne() ([]uts.Node, int) { return s.Steal(1) }

// StealHalf removes half of the stealable chunks, rounded up — the
// strategy of paper §IV-C ("stealing half the work of the victim is an
// optimal strategy").
func (s *Stack) StealHalf() ([]uts.Node, int) {
	return s.Steal((s.StealableChunks() + 1) / 2)
}

// Drop discards every node on the stack and returns how many were
// lost. It exists for fault injection: a fail-stop crash takes the
// rank's local work with it. The chunk buffers are recycled, but no
// lifetime counter moves — dropped nodes were pushed and never popped,
// which is exactly how a crash looks from the outside.
func (s *Stack) Drop() int {
	lost := s.Len()
	for i := range s.chunks {
		s.recycle(s.chunks[i])
		s.chunks[i] = nil
	}
	s.chunks = s.chunks[:0]
	return lost
}

// TakeTop removes and returns the top chunk regardless of the
// private-chunk rule. It exists for owners reclaiming work from their
// own shared stack (package rt): the private-top rule protects a chunk
// the owner is working from, which does not apply to a stack used only
// as a transfer area — without this bypass the final chunk would be
// unreachable by owner (Steal refuses it) and thieves alike.
func (s *Stack) TakeTop() ([]uts.Node, bool) {
	top := len(s.chunks) - 1
	if top < 0 {
		return nil, false
	}
	out := append([]uts.Node(nil), s.chunks[top]...)
	s.recycle(s.chunks[top])
	s.chunks[top] = nil
	s.chunks = s.chunks[:top]
	s.pops += uint64(len(out))
	return out, true
}

// Acquire pushes stolen nodes onto the stack, preserving their order
// (they arrive oldest-first and are pushed bottom-up so the thief pops
// the newest stolen node first, as the reference implementation does).
func (s *Stack) Acquire(nodes []uts.Node) {
	for _, n := range nodes {
		s.Push(n)
	}
	s.acquired += uint64((len(nodes) + s.chunkSize - 1) / s.chunkSize)
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
		MaxNodesResident: s.maxNodes,
	}
}
