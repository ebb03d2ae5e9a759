package uts

import "testing"

// BenchmarkUTSChildGen measures generating the 64 children one engine
// quantum expands — the inner loop of every quantum, one SHA-1 chain
// per child — on each body of hashBlock and for two parent shapes.
// /sha-ni and /fallback expand one 64-child binomial node, so they read
// the hash alone: the first under the dispatch package init chose (the
// kernel wherever the CPU has the SHA extensions; it is not skipped
// elsewhere, so that the allocation gate sees the same rows on every
// host), the second with the dispatch forced off, i.e. crypto/sha1.
// /binary expands 32 two-child nodes, the m = 2 shape of every H-* and
// T3* preset, where staging a parent (Reset) is a third of the calls.
func BenchmarkUTSChildGen(b *testing.B) {
	wide := Params{Type: Binomial, RootSeed: 42, B0: 64, NonLeafBF: 8, NonLeafProb: 0.1}
	b.Run("sha-ni", func(b *testing.B) {
		benchChildGen(b, wide, []Node{wide.Root()})
	})
	b.Run("fallback", func(b *testing.B) {
		withSHANI(false, func() { benchChildGen(b, wide, []Node{wide.Root()}) })
	})
	b.Run("binary", func(b *testing.B) {
		binary := Params{Type: Binomial, RootSeed: 42, B0: 32, NonLeafBF: 2, NonLeafProb: 1}
		root := binary.Root()
		benchChildGen(b, binary, binary.AppendChildren(nil, &root))
	})
}

// benchChildGen expands every parent per iteration; together they must
// have 64 children.
func benchChildGen(b *testing.B, p Params, parents []Node) {
	buf := make([]Node, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for j := range parents {
			buf = p.AppendChildren(buf, &parents[j])
		}
	}
	if len(buf) != 64 {
		b.Fatalf("%d parents have %d children, want 64", len(parents), len(buf))
	}
}
