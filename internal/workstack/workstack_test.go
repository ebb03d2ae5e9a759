package workstack

import (
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"distws/internal/uts"
)

// node returns a distinguishable test node.
func node(id uint32) uts.Node {
	var n uts.Node
	binary.BigEndian.PutUint32(n.State[:4], id)
	n.Height = int32(id % 7)
	return n
}

func TestNewPanicsOnBadChunkSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for chunk size 0")
		}
	}()
	New(0)
}

func TestLIFO(t *testing.T) {
	s := New(3)
	for i := uint32(0); i < 10; i++ {
		s.Push(node(i))
	}
	for i := int32(9); i >= 0; i-- {
		n, ok := s.Pop()
		if !ok {
			t.Fatalf("Pop failed at %d", i)
		}
		if got := binary.BigEndian.Uint32(n.State[:4]); got != uint32(i) {
			t.Fatalf("popped %d, want %d", got, i)
		}
	}
	if _, ok := s.Pop(); ok {
		t.Fatal("Pop on empty stack succeeded")
	}
	if !s.Empty() {
		t.Fatal("stack not empty")
	}
}

func TestLenAndChunks(t *testing.T) {
	s := New(4)
	if s.Len() != 0 || s.Chunks() != 0 || !s.Empty() {
		t.Fatal("fresh stack not empty")
	}
	for i := uint32(0); i < 9; i++ {
		s.Push(node(i))
	}
	if s.Len() != 9 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Chunks() != 3 { // 4 + 4 + 1
		t.Fatalf("Chunks = %d", s.Chunks())
	}
	s.Pop()
	if s.Len() != 8 || s.Chunks() != 2 {
		t.Fatalf("after pop: len %d chunks %d", s.Len(), s.Chunks())
	}
}

func TestPrivateChunkRule(t *testing.T) {
	s := New(5)
	// A single incomplete chunk: nothing stealable (paper §II-A).
	for i := uint32(0); i < 4; i++ {
		s.Push(node(i))
	}
	if s.StealableChunks() != 0 {
		t.Fatal("incomplete private chunk marked stealable")
	}
	if got, k := s.StealInto(nil, 1); got != nil || k != 0 {
		t.Fatal("stole from private chunk")
	}
	// Exactly one full chunk: still private (it is the top).
	s.Push(node(4))
	if s.StealableChunks() != 0 {
		t.Fatal("single full chunk stealable")
	}
	// Second chunk opens: the bottom full chunk becomes stealable.
	s.Push(node(5))
	if s.StealableChunks() != 1 {
		t.Fatalf("StealableChunks = %d, want 1", s.StealableChunks())
	}
}

func TestStealOneTakesOldest(t *testing.T) {
	s := New(3)
	for i := uint32(0); i < 10; i++ {
		s.Push(node(i))
	}
	// Chunks: [0 1 2][3 4 5][6 7 8][9] — bottom chunk is 0,1,2.
	got, k := s.StealInto(nil, 1)
	if k != 1 || len(got) != 3 {
		t.Fatalf("stole %d chunks, %d nodes", k, len(got))
	}
	for i, n := range got {
		if id := binary.BigEndian.Uint32(n.State[:4]); id != uint32(i) {
			t.Fatalf("stolen node %d has id %d", i, id)
		}
	}
	if s.Len() != 7 {
		t.Fatalf("victim kept %d nodes, want 7", s.Len())
	}
	// Owner's pop order unaffected for remaining nodes.
	n, _ := s.Pop()
	if id := binary.BigEndian.Uint32(n.State[:4]); id != 9 {
		t.Fatalf("owner popped %d, want 9", id)
	}
}

func TestStealHalfRoundsUp(t *testing.T) {
	cases := []struct {
		chunks     int // full chunks to create (plus a partial top)
		wantStolen int
	}{
		{1, 1}, // stealable 1 -> take 1
		{2, 1},
		{3, 2},
		{4, 2},
		{5, 3},
		{7, 4},
	}
	for _, c := range cases {
		s := New(2)
		// c.chunks full chunks plus one extra node as private top.
		for i := uint32(0); i < uint32(c.chunks*2+1); i++ {
			s.Push(node(i))
		}
		if s.StealableChunks() != c.chunks {
			t.Fatalf("setup: stealable = %d, want %d", s.StealableChunks(), c.chunks)
		}
		_, k := s.StealHalf()
		if k != c.wantStolen {
			t.Fatalf("%d stealable: StealHalf took %d, want %d", c.chunks, k, c.wantStolen)
		}
	}
}

func TestStealMoreThanAvailable(t *testing.T) {
	s := New(2)
	for i := uint32(0); i < 7; i++ { // 3 full chunks + top
		s.Push(node(i))
	}
	got, k := s.StealInto(nil, 100)
	if k != 3 || len(got) != 6 {
		t.Fatalf("StealInto(nil, 100) took %d chunks, %d nodes", k, len(got))
	}
	if s.Len() != 1 {
		t.Fatalf("victim kept %d nodes", s.Len())
	}
}

func TestAcquire(t *testing.T) {
	victim := New(3)
	for i := uint32(0); i < 9; i++ {
		victim.Push(node(i))
	}
	thief := New(3)
	loot, k := victim.StealInto(nil, 1)
	thief.Acquire(loot)
	if k != 1 || thief.Len() != 3 {
		t.Fatalf("thief has %d nodes after acquiring %d chunks", thief.Len(), k)
	}
	// Thief pops the newest of the stolen nodes first.
	n, _ := thief.Pop()
	if id := binary.BigEndian.Uint32(n.State[:4]); id != 2 {
		t.Fatalf("thief popped %d, want 2", id)
	}
	if got := thief.ChunksAcquired(); got != 1 {
		t.Fatalf("ChunksAcquired = %d", got)
	}
}

// TestStats: ChunksAcquired counts the chunks of every acquired batch,
// a partial one included, and neither pushes, pops, steals nor a drop
// move it.
func TestStats(t *testing.T) {
	s := New(2)
	for i := uint32(0); i < 5; i++ {
		s.Push(node(i))
	}
	s.Pop()
	s.Acquire([]uts.Node{node(5), node(6), node(7)})
	s.StealInto(nil, 1)
	s.Drop(nil)
	if got := s.ChunksAcquired(); got != 2 {
		t.Fatalf("%d chunks acquired, want 2", got)
	}
}

// TestChunkRecycling states segment conservation on a stack's own
// pool: a stack holds the segments its nodes need and no more, hands
// back the ones pops, steals and a drop empty, and takes them again
// from the pool, so going down and up again — across one segment
// boundary or between its deepest and empty — allocates nothing. A
// stack that fits one segment never allocates its segment list.
func TestChunkRecycling(t *testing.T) {
	const depth = 4*segNodes + 3
	s := New(8)
	known := map[*segment]bool{}
	fill := func() {
		for i := uint32(0); i < depth; i++ {
			s.Push(node(i))
		}
	}
	held := func() int { return len(s.below) + min(cap(s.top), 1) }
	fill()
	checkInvariants(t, s.pool, known, s)
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < depth; i++ {
			s.Pop()
		}
		fill()
	}); allocs != 0 {
		t.Errorf("%v allocations per %d-node churn, want 0", allocs, depth)
	}
	if held() != depth/segNodes+1 || len(*s.pool) != 0 {
		t.Fatalf("a %d-node stack holds %d segments and leaves %d in the pool, want %d and 0", depth, held(), len(*s.pool), depth/segNodes+1)
	}
	// Eight chunks of eight leave from the bottom: four segments go back.
	if _, chunks := s.StealInto(nil, 100); chunks != (depth-1)/8 {
		t.Fatalf("stole %d chunks, want %d", chunks, (depth-1)/8)
	}
	checkInvariants(t, s.pool, known, s)
	if held() != 1 || len(*s.pool) != depth/segNodes || s.Len() != 3 {
		t.Fatalf("%d segments held, %d pooled and %d nodes after the steal, want 1, %d and 3", held(), len(*s.pool), s.Len(), depth/segNodes)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		fill()
		for i := 0; i < depth; i++ {
			s.Pop()
		}
	}); allocs != 0 {
		t.Errorf("%v allocations refilling a robbed stack, want 0", allocs)
	}
	fill()
	if lost := len(s.Drop(nil)); lost != 3+depth || held() != 0 || len(*s.pool) != len(known) {
		t.Fatalf("Drop lost %d nodes and left %d segments held, %d of %d pooled", lost, held(), len(*s.pool), len(known))
	}
	checkInvariants(t, s.pool, known, s)
	small := New(8)
	for i := uint32(0); i < segNodes; i++ {
		small.Push(node(i))
	}
	if small.below != nil {
		t.Fatal("a stack of one segment allocated its segment list")
	}
}

// TestPooledStacksAllocateNothing: stacks over one pool that go down and
// up again, and trade their work back and forth, take their segments
// from the pool and allocate nothing once it holds their peak.
func TestPooledStacksAllocateNothing(t *testing.T) {
	pool := new(Pool)
	var a, b Stack
	a.Init(4, pool)
	b.Init(4, pool)
	var loot []uts.Node
	round := func() {
		for i := uint32(0); i < 3*segNodes; i++ {
			a.Push(node(i))
		}
		loot, _ = a.StealInto(loot[:0], a.StealableChunks())
		b.Acquire(loot)
		for !a.Empty() {
			a.Pop()
		}
		for !b.Empty() {
			b.Pop()
		}
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("%v allocations per round, want 0", allocs)
	}
	if a.top != nil || b.top != nil || len(*pool) == 0 {
		t.Fatalf("empty stacks hold segments, or the pool holds none (%d)", len(*pool))
	}
}

// Property: for any sequence of pushes, a full steal+acquire round trip
// preserves the multiset of nodes and total count.
func TestPropertyStealPreservesNodes(t *testing.T) {
	f := func(ids []uint32, chunkSize uint8, half bool) bool {
		cs := int(chunkSize%16) + 1
		victim := New(cs)
		want := map[[20]byte]int{}
		for _, id := range ids {
			n := node(id)
			victim.Push(n)
			want[n.State]++
		}
		thief := New(cs)
		var loot []uts.Node
		if half {
			loot, _ = victim.StealHalf()
		} else {
			loot, _ = victim.StealInto(nil, 1)
		}
		thief.Acquire(loot)

		got := map[[20]byte]int{}
		total := 0
		for _, s := range []*Stack{victim, thief} {
			for {
				n, ok := s.Pop()
				if !ok {
					break
				}
				got[n.State]++
				total++
			}
		}
		if total != len(ids) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: StealableChunks == max(0, Chunks-1) and steals never touch
// the top chunk's nodes.
func TestPropertyStealableCount(t *testing.T) {
	f := func(n uint16, chunkSize uint8) bool {
		cs := int(chunkSize%16) + 1
		s := New(cs)
		for i := uint32(0); i < uint32(n); i++ {
			s.Push(node(i))
		}
		want := s.Chunks() - 1
		if want < 0 {
			want = 0
		}
		return s.StealableChunks() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWorkStack prices the two shapes a run gives the stack: the
// owner's push-pop at the top, at a depth where every few operations
// cross a segment, and a thief's round trip — steal half into a
// recycled buffer at the victim, acquire at the thief — of the engine's
// steal path. Neither allocates once the stacks have their segments.
func BenchmarkWorkStack(b *testing.B) {
	n := node(1)
	b.Run("push-pop", func(b *testing.B) {
		s := New(DefaultChunkSize)
		for i := 0; i < segNodes-1; i++ {
			s.Push(n)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Push(n)
			s.Push(n)
			s.Pop()
			s.Pop()
		}
	})
	b.Run("steal-half-acquire", func(b *testing.B) {
		victim, thief := New(DefaultChunkSize), New(DefaultChunkSize)
		for i := 0; i < 10*DefaultChunkSize+1; i++ {
			victim.Push(n)
		}
		var loot []uts.Node
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			loot, _ = victim.StealInto(loot[:0], (victim.StealableChunks()+1)/2)
			thief.Acquire(loot)
			victim, thief = thief, victim
		}
	})
}

func TestDrop(t *testing.T) {
	s := New(2)
	for i := uint32(0); i < 7; i++ {
		s.Push(node(i))
	}
	lost := s.Drop(nil)
	for i := range 7 {
		if len(lost) != 7 || lost[i] != node(uint32(i)) {
			t.Fatalf("Drop = %v, want the 7 nodes oldest first", lost)
		}
	}
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("stack not empty after Drop")
	}
	if lost := s.Drop(nil); len(lost) != 0 {
		t.Fatalf("Drop on empty stack = %v", lost)
	}
	// The stack stays usable and reuses the recycled buffers.
	s.Push(node(9))
	if got, ok := s.Pop(); !ok || binary.BigEndian.Uint32(got.State[:4]) != 9 {
		t.Fatalf("Pop after Drop = %v, %v", got, ok)
	}
}

// TestStackInitMatchesNew: a Stack held by value and initialised in
// place is the stack New returns — field for field when fresh, and
// through a push / steal / acquire / pop sequence — Init on a used
// stack empties it, and the top segment's slice header stays the
// struct's first field with the node count and chunk size in the same
// 64 bytes (core's worker starts with them, the line a thief's request
// reads at a working victim) of a struct no larger than 96.
func TestStackInitMatchesNew(t *testing.T) {
	var slab [2]struct {
		pad uint64
		s   Stack
	}
	byValue := &slab[1].s
	byValue.Init(3, new(Pool))
	if !reflect.DeepEqual(byValue, New(3)) {
		t.Fatalf("Init(3) = %+v, New(3) = %+v", *byValue, *New(3))
	}
	drive := func(s *Stack) (trace []int) {
		for i := uint32(0); i < 20; i++ {
			s.Push(node(i))
		}
		loot, chunks := s.StealHalf()
		trace = append(trace, chunks, len(loot), s.StealableChunks(), s.Len())
		s.Acquire(loot[:5])
		for i := 0; i < 9; i++ {
			n, _ := s.Pop()
			trace = append(trace, int(binary.BigEndian.Uint32(n.State[:4])))
		}
		return append(trace, s.Chunks(), s.ChunkSize(), int(s.ChunksAcquired()))
	}
	if got, want := drive(byValue), drive(New(3)); !reflect.DeepEqual(got, want) {
		t.Fatalf("by-value stack diverged from New's:\n got %v\nwant %v", got, want)
	}
	byValue.Init(5, new(Pool))
	if !reflect.DeepEqual(byValue, New(5)) {
		t.Fatalf("Init on a used stack left %+v, want %+v", *byValue, *New(5))
	}
	if off := unsafe.Offsetof(byValue.top); off != 0 {
		t.Fatalf("Stack.top at offset %d, want 0", off)
	}
	if end := unsafe.Offsetof(byValue.chunkSize) + unsafe.Sizeof(byValue.chunkSize); unsafe.Offsetof(byValue.n) > end || end > 64 {
		t.Fatalf("Stack.n and Stack.chunkSize end at offset %d, want them inside the first 64 bytes", end)
	}
	if size := unsafe.Sizeof(*byValue); size > 96 {
		t.Fatalf("Stack is %d bytes, want at most 96", size)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Init(0)")
		}
	}()
	byValue.Init(0, new(Pool))
}
