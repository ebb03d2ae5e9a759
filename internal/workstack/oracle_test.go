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
	opTakeDrop  = 15 // TakeTop, or Drop when the operand is 15
)

func op(code, operand int) byte { return byte(code | operand<<4) }

// checkInvariants holds a Stack to its representation invariants.
func checkInvariants(t testing.TB, s *Stack) {
	t.Helper()
	if s.top == nil {
		if s.n != 0 || s.pushes != 0 || cap(s.below) != 0 {
			t.Fatalf("no top segment on a stack with %d nodes, %d pushes and a list of %d", s.n, s.pushes, cap(s.below))
		}
		return
	}
	if cap(s.top) != segNodes {
		t.Fatalf("top has capacity %d: it does not start where its segment does", cap(s.top))
	}
	if s.head < 0 || s.head >= segNodes || (s.n == 0 && (s.head != 0 || len(s.top) != 0)) {
		t.Fatalf("head = %d and %d nodes in top with %d on the stack", s.head, len(s.top), s.n)
	}
	if got := len(s.below)*segNodes + len(s.top) - int(s.head); got != int(s.n) {
		t.Fatalf("%d full segments, %d nodes in top and head %d make %d nodes, n = %d", len(s.below), len(s.top), s.head, got, s.n)
	}
	if s.n > 0 && len(s.top) == 0 {
		t.Fatalf("empty top segment over %d nodes", s.n)
	}
	// The list holds the full segments, then the spares, then nothing.
	seen := map[*segment]bool{(*segment)(s.top[:segNodes]): true}
	gap := false
	for i, seg := range s.below[:cap(s.below)] {
		switch {
		case seg == nil:
			gap = true
			if i < len(s.below) {
				t.Fatalf("full segment %d is nil", i)
			}
		case gap:
			t.Fatalf("slot %d of the list (%d full) holds a segment behind an empty slot", i, len(s.below))
		case seen[seg]:
			t.Fatalf("segment in slot %d is listed twice", i)
		}
		seen[seg] = true
	}
}

// runModel applies prog to a Stack and to the chunked reference and
// requires the same return values and the same Len, Chunks,
// StealableChunks, Empty and Stats after every step, then drains both.
func runModel(t testing.TB, chunkSize int, prog []byte) {
	t.Helper()
	s, ref := New(chunkSize), newChunked(chunkSize)
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
		var got, want any
		switch {
		case code < opPop:
			n := fresh(1)[0]
			s.Push(n)
			ref.Push(n)
		case code < opSteal:
			gn, gok := s.Pop()
			wn, wok := ref.Pop()
			got, want = []any{gn, gok}, []any{wn, wok}
		case code == opSteal:
			gl, gk := s.Steal(operand % 6)
			wl, wk := ref.Steal(operand % 6)
			got, want = []any{gl, gk}, []any{wl, wk}
		case code == opStealOne:
			gl, gk := s.StealOne()
			wl, wk := ref.StealOne()
			got, want = []any{gl, gk}, []any{wl, wk}
		case code == opStealHalf:
			gl, gk := s.StealHalf()
			wl, wk := ref.StealHalf()
			got, want = []any{gl, gk}, []any{wl, wk}
		case code == opStealInto:
			// A recycled buffer: a prefix to keep, stale nodes behind it.
			prefix := fresh(operand % 3)
			dst := append(prefix[:len(prefix):len(prefix)], fresh(operand)...)[:len(prefix)]
			gl, gk := s.StealInto(dst, operand%4)
			wl, wk := ref.Steal(operand % 4)
			if len(prefix) > 0 && !reflect.DeepEqual(gl[:len(prefix)], prefix) {
				t.Fatalf("chunk %d, step %d: StealInto changed the %d nodes dst came with", chunkSize, step, len(prefix))
			}
			got, want = []any{append([]uts.Node(nil), gl[len(prefix):]...), gk}, []any{wl, wk}
		case code == opAcquire:
			loot := fresh(operand * 3)
			s.Acquire(loot)
			ref.Acquire(loot)
		case operand < 15:
			gl, gok := s.TakeTop()
			wl, wok := ref.TakeTop()
			got, want = []any{gl, gok}, []any{wl, wok}
		default:
			got, want = len(s.Drop(nil)), ref.Drop()
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d, step %d (op %#02x): returned %v, reference %v", chunkSize, step, b, got, want)
		}
		if g, w := [3]int{s.Len(), s.Chunks(), s.StealableChunks()}, [3]int{ref.Len(), ref.Chunks(), ref.StealableChunks()}; g != w || s.Empty() != ref.Empty() {
			t.Fatalf("chunk %d, step %d (op %#02x): Len/Chunks/StealableChunks = %v (empty %v), reference %v (empty %v)",
				chunkSize, step, b, g, s.Empty(), w, ref.Empty())
		}
		if s.Stats() != ref.Stats() {
			t.Fatalf("chunk %d, step %d (op %#02x): Stats = %+v, reference %+v", chunkSize, step, b, s.Stats(), ref.Stats())
		}
		checkInvariants(t, s)
	}
	for {
		gn, gok := s.Pop()
		wn, wok := ref.Pop()
		if gn != wn || gok != wok {
			t.Fatalf("chunk %d, draining: popped %v %v, reference %v %v", chunkSize, gn, gok, wn, wok)
		}
		if !gok {
			break
		}
	}
}

// directedProgram visits the corners a random program may take long to
// reach: a steal that leaves exactly one chunk, steals whose chunks
// straddle segment boundaries with the bottom segment part-consumed, a
// stack that empties by pops, by TakeTop and by Drop and refills, and
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
	repeat(op(opTakeDrop, 0), 8) // TakeTop down to empty and past it
	p = append(p, op(opAcquire, 15), op(opAcquire, 15), op(opStealInto, 3))
	p = append(p, op(opTakeDrop, 15), op(opTakeDrop, 15)) // Drop, twice
	repeat(op(opPush, 0), 2*chunkSize+3)
	return append(p, op(opStealHalf, 0), op(opSteal, 0), op(opSteal, 5))
}

// TestStackMatchesChunked drives the segment-backed Stack and the
// chunk-per-buffer reference through the directed program and through
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
