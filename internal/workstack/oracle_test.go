package workstack

import (
	"reflect"
	"testing"

	"distws/internal/rng"
	"distws/internal/uts"
)

// Operation codes of the model programs, in a byte's low nibble; the
// high nibble is the operand. Pushes outweigh pops so that a random
// program builds stacks several chunks and segments deep.
const (
	opPush      = 0 // 0..5
	opPop       = 6 // 6..9
	opSteal     = 10
	opStealOne  = 11
	opStealHalf = 12
	opStealInto = 13
	opAcquire   = 14
	opDrop      = 15
)

func op(code, operand int) byte { return byte(code | operand<<4) }

// checkInvariants holds stacks that share pool p to their
// representation invariants and to segment conservation: every segment
// in known — each one seen so far — is in exactly one stack or in the
// pool, and an empty stack holds none. It adds the segments it finds to
// known.
func checkInvariants(t testing.TB, p *Pool, known map[*segment]bool, stacks ...*Stack) {
	t.Helper()
	where := map[*segment]int{} // the stack holding a segment, -1 for the pool
	hold := func(seg *segment, at int) {
		if prev, ok := where[seg]; ok {
			t.Fatalf("segment held by %d and by %d (-1: the pool)", prev, at)
		}
		where[seg] = at
	}
	for _, seg := range *p {
		hold(seg, -1)
	}
	for i, s := range stacks {
		if s.pool != p {
			t.Fatalf("stack %d draws from another pool", i)
		}
		if s.n == 0 {
			if s.top != nil || len(s.below) != 0 || s.head != 0 {
				t.Fatalf("empty stack %d holds a top of capacity %d, %d full segments and head %d", i, cap(s.top), len(s.below), s.head)
			}
			continue
		}
		if cap(s.top) != segNodes || len(s.top) == 0 {
			t.Fatalf("stack %d: top holds %d nodes with capacity %d over %d nodes", i, len(s.top), cap(s.top), s.n)
		}
		if s.head < 0 || s.head >= segNodes {
			t.Fatalf("stack %d: head = %d", i, s.head)
		}
		if got := len(s.below)*segNodes + len(s.top) - int(s.head); got != int(s.n) {
			t.Fatalf("stack %d: %d full segments, %d nodes in top and head %d make %d nodes, n = %d", i, len(s.below), len(s.top), s.head, got, s.n)
		}
		hold((*segment)(s.top[:segNodes]), i)
		for _, seg := range s.below {
			hold(seg, i)
		}
	}
	for seg := range known {
		if _, ok := where[seg]; !ok {
			t.Fatalf("a segment is in no stack and not in the pool")
		}
	}
	for seg := range where {
		known[seg] = true
	}
}

// runModel applies prog to two Stacks over one pool and to two chunked
// references, and requires the same return values and the same Len,
// Chunks, StealableChunks, Empty and ChunksAcquired after every step, then
// drains all four. Pushes, pops, acquires of fresh nodes and drops act
// on the current stack; a steal takes chunks from it, the other stack
// acquires them and becomes the current one, so the two steal from each
// other.
func runModel(t testing.TB, chunkSize int, prog []byte) {
	t.Helper()
	pool, known := new(Pool), map[*segment]bool{}
	var s [2]*Stack
	var ref [2]*chunked
	for i := range s {
		s[i], ref[i] = new(Stack), newChunked(chunkSize)
		s[i].Init(chunkSize, pool)
	}
	cur := 0
	var id uint32
	fresh := func(count int) []uts.Node {
		nodes := make([]uts.Node, count)
		for i := range nodes {
			id++
			nodes[i] = node(id)
		}
		return nodes
	}
	for step, b := range prog {
		code, operand := int(b&15), int(b>>4)
		st, rf := s[cur], ref[cur]
		var got, want any
		var loot []uts.Node
		switch {
		case code < opPop:
			n := fresh(1)[0]
			st.Push(n)
			rf.Push(n)
		case code < opSteal:
			gn, gok := st.Pop()
			wn, wok := rf.Pop()
			got, want = []any{gn, gok}, []any{wn, wok}
		case code == opSteal:
			gl, gk := st.StealInto(nil, operand%6)
			wl, wk := rf.Steal(operand % 6)
			got, want, loot = []any{gl, gk}, []any{wl, wk}, gl
		case code == opStealOne:
			gl, gk := st.StealInto(nil, 1)
			wl, wk := rf.Steal(1)
			got, want, loot = []any{gl, gk}, []any{wl, wk}, gl
		case code == opStealHalf:
			gl, gk := st.StealHalf()
			wl, wk := rf.StealHalf()
			got, want, loot = []any{gl, gk}, []any{wl, wk}, gl
		case code == opStealInto:
			// A recycled buffer: a prefix to keep, stale nodes behind it.
			prefix := fresh(operand % 3)
			dst := append(prefix[:len(prefix):len(prefix)], fresh(operand)...)[:len(prefix)]
			gl, gk := st.StealInto(dst, operand%4)
			wl, wk := rf.Steal(operand % 4)
			if len(prefix) > 0 && !reflect.DeepEqual(gl[:len(prefix)], prefix) {
				t.Fatalf("chunk %d, step %d: StealInto changed the %d nodes dst came with", chunkSize, step, len(prefix))
			}
			loot = append([]uts.Node(nil), gl[len(prefix):]...)
			got, want = []any{loot, gk}, []any{wl, wk}
		case code == opAcquire:
			nodes := fresh(operand * 3)
			st.Acquire(nodes)
			rf.Acquire(nodes)
		default:
			got, want = len(st.Drop(nil)), rf.Drop()
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d, step %d (op %#02x): returned %v, reference %v", chunkSize, step, b, got, want)
		}
		if len(loot) > 0 {
			cur = 1 - cur
			s[cur].Acquire(loot)
			ref[cur].Acquire(loot)
		}
		for i := range s {
			g := [3]int{s[i].Len(), s[i].Chunks(), s[i].StealableChunks()}
			w := [3]int{ref[i].Len(), ref[i].Chunks(), ref[i].StealableChunks()}
			if g != w || s[i].Empty() != ref[i].Empty() {
				t.Fatalf("chunk %d, step %d (op %#02x), stack %d: Len/Chunks/StealableChunks = %v (empty %v), reference %v (empty %v)",
					chunkSize, step, b, i, g, s[i].Empty(), w, ref[i].Empty())
			}
			if g, w := s[i].ChunksAcquired(), ref[i].ChunksAcquired(); g != w {
				t.Fatalf("chunk %d, step %d (op %#02x), stack %d: ChunksAcquired = %d, reference %d", chunkSize, step, b, i, g, w)
			}
		}
		checkInvariants(t, pool, known, s[:]...)
	}
	for i := range s {
		for {
			gn, gok := s[i].Pop()
			wn, wok := ref[i].Pop()
			if gn != wn || gok != wok {
				t.Fatalf("chunk %d, draining stack %d: popped %v %v, reference %v %v", chunkSize, i, gn, gok, wn, wok)
			}
			if !gok {
				break
			}
		}
	}
	checkInvariants(t, pool, known, s[:]...)
	if len(*pool) != len(known) {
		t.Fatalf("chunk %d: %d of %d segments back in the pool after draining", chunkSize, len(*pool), len(known))
	}
}

// directedProgram visits the corners a random program may take long to
// reach: a steal that leaves exactly one chunk, steals whose chunks
// straddle segment boundaries with the bottom segment part-consumed, a
// stack that empties by pops and by Drop and refills, and
// pushes and pops back and forth across a segment boundary.
func directedProgram(chunkSize int) []byte {
	var p []byte
	repeat := func(b byte, n int) {
		for i := 0; i < n; i++ {
			p = append(p, b)
		}
	}
	repeat(op(opPush, 0), 5*chunkSize+1)
	p = append(p, op(opSteal, 4)) // leaves one full chunk and the top
	p = append(p, op(opStealOne, 0), op(opStealOne, 0))
	repeat(op(opPop, 0), chunkSize+2) // empty, and one pop more
	repeat(op(opPush, 0), 3*segNodes)
	for i := 0; i < 4; i++ { // back and forth across a segment boundary
		p = append(p, op(opPop, 0), op(opPush, 0), op(opPush, 0), op(opPop, 0))
	}
	for i := 0; i < 6; i++ { // the bottom moves up a chunk at a time
		p = append(p, op(opStealInto, 1), op(opAcquire, 5), op(opStealHalf, 0))
	}
	p = append(p, op(opAcquire, 15), op(opAcquire, 15), op(opStealInto, 3))
	p = append(p, op(opDrop, 0), op(opDrop, 0)) // Drop, twice
	repeat(op(opPush, 0), 2*chunkSize+3)
	return append(p, op(opStealHalf, 0), op(opSteal, 0), op(opSteal, 5))
}

// TestStackMatchesChunked drives two segment-backed Stacks over one pool
// and two chunk-per-buffer references through the directed program and through
// long random ones, at a chunk size of one node, one smaller than a
// segment, the UTS default (a chunk spans two or three segments) and
// one spanning three or four.
func TestStackMatchesChunked(t *testing.T) {
	for _, chunkSize := range []int{1, 4, 20, 33} {
		runModel(t, chunkSize, directedProgram(chunkSize))
		r := rng.New(uint64(chunkSize))
		for round := 0; round < 20; round++ {
			prog := make([]byte, 3000)
			for i := range prog {
				prog[i] = byte(r.Uint64())
			}
			runModel(t, chunkSize, append(prog, directedProgram(chunkSize)...))
		}
	}
}

// FuzzStackMatchesChunked is the same model under the fuzzer: the first
// byte picks the chunk size, the rest is the program.
func FuzzStackMatchesChunked(f *testing.F) {
	for _, chunkSize := range []int{1, 4, 20, 33} {
		f.Add(append([]byte{byte(chunkSize)}, directedProgram(chunkSize)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runModel(t, int(data[0])%40+1, data[1:])
	})
}
