package uts

import (
	"bytes"
	"crypto/sha1"
	"encoding/binary"
	"testing"

	"distws/internal/rng"
)

// haveKernel records whether package init selected the SHA-NI kernel,
// before any test flips useSHANI.
var haveKernel = useSHANI

// hashPaths lists the dispatch settings this host can run: the
// crypto/sha1 fallback always, the kernel when the CPU has it.
func hashPaths() []bool {
	if haveKernel {
		return []bool{false, true}
	}
	return []bool{false}
}

func pathName(shani bool) string {
	if shani {
		return "sha-ni"
	}
	return "fallback"
}

// withSHANI runs f with the dispatch variable forced to shani.
func withSHANI(shani bool, f func()) {
	defer func(old bool) { useSHANI = old }(useSHANI)
	useSHANI = shani
	f()
}

// FuzzSHA1BlockMatchesStdlib holds both bodies of hashBlock, and the
// kernel's two entry points directly, to crypto/sha1 byte for byte: the
// first 24 fuzz bytes are a child input, the next 20 a chain state
// (short inputs are zero-extended) and one more byte picks the chain
// length.
func FuzzSHA1BlockMatchesStdlib(f *testing.F) {
	root := MustPreset("H-SMALL").Params.Root()
	child := func(s State, index uint32) []byte {
		return binary.BigEndian.AppendUint32(append([]byte(nil), s[:]...), index)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 45))
	f.Add(child(State{}, 1))
	f.Add(child(root.State, 0))
	f.Add(child(root.State, 1))
	f.Add(append(append(child(root.State, 1<<32-1), root.State[:]...), 7))

	f.Fuzz(func(t *testing.T, data []byte) {
		var in [StateSize + 4 + StateSize + 1]byte
		copy(in[:], data)
		msg24 := [StateSize + 4]byte(in[:StateSize+4])
		msg20 := State(in[StateSize+4 : StateSize+4+StateSize])
		rounds := 1 + int(in[len(in)-1])%8

		want24, want20 := State(sha1.Sum(msg24[:])), State(sha1.Sum(msg20[:]))
		wantChain := want24
		for r := 1; r < rounds; r++ {
			wantChain = sha1.Sum(wantChain[:])
		}
		for _, shani := range hashPaths() {
			withSHANI(shani, func() {
				var got State
				hashBlock(&got, &msg24, 1)
				if got != want24 {
					t.Errorf("%s: hashBlock(%x, 1) = %x, want %x", pathName(shani), msg24, got, want24)
				}
				hashBlock(&got, &msg24, rounds)
				if got != wantChain {
					t.Errorf("%s: hashBlock(%x, %d) = %x, want %x", pathName(shani), msg24, rounds, got, wantChain)
				}
			})
		}
		if !haveKernel {
			return
		}
		var got State
		blockChainSHANI(&got, &msg20)
		if got != want20 {
			t.Errorf("blockChainSHANI(%x) = %x, want %x", msg20, got, want20)
		}
		got = msg20
		blockChainSHANI(&got, &got)
		if got != want20 {
			t.Errorf("blockChainSHANI(%x) in place = %x, want %x", msg20, got, want20)
		}
	})
}

// TestChildGenBothPaths: the tree does not depend on which body
// hashBlock runs. On each, whole-tree totals must equal the sizes
// recorded when only crypto/sha1 existed, and children generated in any
// order must carry the state crypto/sha1 computes for them here.
func TestChildGenBothPaths(t *testing.T) {
	gran8 := MustPreset("T3").Params
	gran8.Granularity = 8
	for _, tc := range []struct {
		name string
		p    Params
		want CountResult
	}{
		{"H-TINY", MustPreset("H-TINY").Params, CountResult{Nodes: 22858, Leaves: 11583, MaxDepth: 225}},
		{"T3", MustPreset("T3").Params, CountResult{Nodes: 2611, Leaves: 2305, MaxDepth: 5}},
		{"T3/gran=8", gran8, CountResult{Nodes: 2677, Leaves: 2338, MaxDepth: 7}},
	} {
		for _, shani := range hashPaths() {
			withSHANI(shani, func() {
				got, err := CountSequential(tc.p)
				if err != nil {
					t.Fatal(err)
				}
				if got != tc.want {
					t.Errorf("%s/%s: CountSequential = %+v, want %+v", tc.name, pathName(shani), got, tc.want)
				}
				root := tc.p.Root()
				var g ChildGen
				n := g.Reset(&tc.p, &root)
				if n < 2 {
					t.Fatalf("%s: root has %d children, need at least 2", tc.name, n)
				}
				for _, i := range []int{n - 1, 0, n / 2, 0, 1<<31 - 1} {
					want := State(sha1.Sum(binary.BigEndian.AppendUint32(root.State[:], uint32(i))))
					for r := 1; r < tc.p.Granularity; r++ {
						want = sha1.Sum(want[:])
					}
					if got := g.Child(i).State; got != want {
						t.Errorf("%s/%s: child %d has state %x, want %x", tc.name, pathName(shani), i, got, want)
					}
				}
			})
		}
	}
	if !haveKernel {
		t.Log("no SHA-NI kernel on this CPU: checked the crypto/sha1 path only")
	}
}

// TestChildGenAllocFree gates the expansion loop at zero allocations on
// both paths: staging a parent and generating all its children must not
// let a node or the hash input escape (the kernel's declarations carry
// //go:noescape for this).
func TestChildGenAllocFree(t *testing.T) {
	gran3 := MustPreset("T3").Params
	gran3.Granularity = 3
	for _, p := range []Params{MustPreset("T3").Params, gran3, MustPreset("T3L-FAST").Params} {
		root := p.Root()
		var g ChildGen
		var sink Node
		for _, shani := range hashPaths() {
			withSHANI(shani, func() {
				avg := testing.AllocsPerRun(20, func() {
					n := g.Reset(&p, &root)
					for i := 0; i < n; i++ {
						sink = g.Child(i)
					}
				})
				if avg != 0 {
					t.Errorf("%v gran=%d %s: %.1f allocs per expansion, want 0", p.Hash, p.Granularity, pathName(shani), avg)
				}
			})
		}
		_ = sink
	}
}

// TestChildIntoStaleSlot: ChildInto writes every field of its
// destination, so a child generated into a reused stack slot, whatever
// bytes the slot held, equals Child(i) and the child an independent
// hash of the parent's state gives — for SHA-1 and the fast hash, at
// granularity 1 and above, on both hashBlock bodies. The parent carries
// a job tag the children must inherit.
func TestChildIntoStaleSlot(t *testing.T) {
	var params []Params
	for _, h := range []Hash{HashSHA1, HashFast} {
		for _, gran := range []int{1, 3} {
			p := MustPreset("T3").Params
			p.Hash, p.Granularity = h, gran
			params = append(params, p)
		}
	}
	for _, p := range params {
		parent := p.Root()
		parent.Height, parent.Job = 4, 0x5eed
		want := func(i int) Node {
			n := Node{Height: 5, Job: 0x5eed}
			switch p.Hash {
			case HashSHA1:
				n.State = sha1.Sum(binary.BigEndian.AppendUint32(parent.State[:], uint32(i)))
				for r := 1; r < p.Granularity; r++ {
					n.State = sha1.Sum(n.State[:])
				}
			case HashFast:
				v := rng.Mix64(binary.BigEndian.Uint64(parent.State[:8]) ^ rng.Mix64(uint64(i)+0x9e3779b97f4a7c15))
				for r := 1; r < p.Granularity; r++ {
					v = rng.Mix64(v)
				}
				writeFastState(&n.State, v)
			}
			return n
		}
		for _, shani := range hashPaths() {
			withSHANI(shani, func() {
				var g ChildGen
				g.Reset(&p, &parent)
				slots := make([]Node, 8)
				for i := range slots {
					slots[i] = Node{Height: -1, Job: 0xdeadbeef}
					for b := range slots[i].State {
						slots[i].State[b] = 0xa5
					}
					g.ChildInto(&slots[i], i)
					if slots[i] != g.Child(i) || slots[i] != want(i) {
						t.Errorf("%v gran=%d %s: child %d written into a stale slot is %v, Child gives %v, the reference %v",
							p.Hash, p.Granularity, pathName(shani), i, slots[i], g.Child(i), want(i))
					}
				}
			})
		}
	}
}
