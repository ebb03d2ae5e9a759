package workstack

import "distws/internal/uts"

// chunked is the work stack as it was while a chunk was also the unit
// of storage — one buffer per chunk, a list of chunk slices, a free
// list of chunk buffers — kept as the reference that Stack must match
// return value for return value (TestStackMatchesChunked,
// FuzzStackMatchesChunked).
type chunked struct {
	// chunks[0] is the bottom (steal end); chunks[len-1] is the top
	// (work end). Every chunk except the top one is full.
	chunks    [][]uts.Node
	chunkSize int
	free      [][]uts.Node // recycled chunk buffers
	acquired  uint64
}

func newChunked(chunkSize int) *chunked { return &chunked{chunkSize: chunkSize} }

func (s *chunked) Len() int {
	if len(s.chunks) == 0 {
		return 0
	}
	return (len(s.chunks)-1)*s.chunkSize + len(s.chunks[len(s.chunks)-1])
}

func (s *chunked) Empty() bool { return len(s.chunks) == 0 }

func (s *chunked) Chunks() int { return len(s.chunks) }

func (s *chunked) newChunk() []uts.Node {
	if n := len(s.free); n > 0 {
		c := s.free[n-1]
		s.free = s.free[:n-1]
		return c[:0]
	}
	return make([]uts.Node, 0, s.chunkSize)
}

func (s *chunked) recycle(c []uts.Node) {
	if len(s.free) < 32 {
		s.free = append(s.free, c[:0])
	}
}

func (s *chunked) Push(n uts.Node) {
	top := len(s.chunks) - 1
	if top < 0 || len(s.chunks[top]) == s.chunkSize {
		s.chunks = append(s.chunks, s.newChunk())
		top++
	}
	s.chunks[top] = append(s.chunks[top], n)
}

func (s *chunked) Pop() (uts.Node, bool) {
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
	return n, true
}

func (s *chunked) StealableChunks() int {
	if len(s.chunks) <= 1 {
		return 0
	}
	return len(s.chunks) - 1
}

func (s *chunked) Steal(want int) ([]uts.Node, int) {
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
	return out, want
}

func (s *chunked) StealHalf() ([]uts.Node, int) {
	return s.Steal((s.StealableChunks() + 1) / 2)
}

func (s *chunked) Drop() int {
	lost := s.Len()
	for i := range s.chunks {
		s.recycle(s.chunks[i])
		s.chunks[i] = nil
	}
	s.chunks = s.chunks[:0]
	return lost
}

func (s *chunked) Acquire(nodes []uts.Node) {
	for _, n := range nodes {
		s.Push(n)
	}
	s.acquired += uint64((len(nodes) + s.chunkSize - 1) / s.chunkSize)
}

func (s *chunked) ChunksAcquired() uint64 { return s.acquired }
