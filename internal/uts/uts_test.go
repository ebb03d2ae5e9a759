package uts

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	good := []Params{
		{Type: Binomial, B0: 2000, NonLeafBF: 2, NonLeafProb: 0.49},
		{Type: Geometric, B0: 4, GenMax: 10},
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("valid params rejected: %+v: %v", p, err)
		}
	}
	bad := []Params{
		{Type: Binomial, B0: -1},
		{Type: Binomial, B0: 10, NonLeafBF: -1},
		{Type: Binomial, B0: 10, NonLeafBF: 2, NonLeafProb: 1.5},
		{Type: Binomial, B0: 10, NonLeafBF: 2, NonLeafProb: 0.6}, // supercritical
		{Type: Geometric, B0: 0, GenMax: 10},
		{Type: Geometric, B0: 4, GenMax: 0},
		{Type: TreeType(9)},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid params accepted: %+v", p)
		}
	}
}

// TestValidateRejectsNonFinite: a NaN fails every ordinary range check
// (NaN < 0 and NaN > 1 are both false), and an infinite or huge B0
// makes NumChildren's float-to-int conversion undefined — the root then
// reads as neither leaf nor parent. Validate must reject them for every
// tree family, and keep accepting the finite values next to them.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bases := map[string]Params{
		"binomial":  {Type: Binomial, B0: 2000, NonLeafBF: 2, NonLeafProb: 0.49},
		"geometric": {Type: Geometric, B0: 4, GenMax: 10},
		"hybrid":    MustPreset("H-TINY").Params,
	}
	for name, base := range bases {
		if err := base.Validate(); err != nil {
			t.Fatalf("%s: base params rejected: %v", name, err)
		}
		for _, b0 := range []float64{nan, inf, -inf, 1e30, 1<<31 + 1, -1} {
			p := base
			p.B0 = b0
			if p.Validate() == nil {
				t.Errorf("%s: B0 = %v accepted", name, b0)
			}
		}
		p := base
		p.B0 = 1 << 31
		if err := p.Validate(); err != nil {
			t.Errorf("%s: B0 = 2^31 rejected: %v", name, err)
		}
		if base.Type == Geometric {
			continue // NonLeafProb is not a parameter of the geometric law
		}
		for _, q := range []float64{nan, inf, -inf, -0.1, 1.1} {
			p := base
			p.NonLeafProb = q
			if p.Validate() == nil {
				t.Errorf("%s: NonLeafProb = %v accepted", name, q)
			}
		}
	}
}

func TestRootDeterministic(t *testing.T) {
	p := Params{Type: Binomial, RootSeed: 316, B0: 2000, NonLeafBF: 2, NonLeafProb: 0.49}
	a, b := p.Root(), p.Root()
	if a != b {
		t.Fatal("Root not deterministic")
	}
	p2 := p
	p2.RootSeed = 317
	if p2.Root() == a {
		t.Fatal("different seeds give identical roots")
	}
	if a.Height != 0 {
		t.Fatal("root height not 0")
	}
}

func TestChildDeterministicAndDistinct(t *testing.T) {
	p := MustPreset("T3S").Params
	root := p.Root()
	c0a := p.Child(&root, 0)
	c0b := p.Child(&root, 0)
	if c0a != c0b {
		t.Fatal("Child not deterministic")
	}
	seen := map[State]bool{}
	for i := 0; i < 100; i++ {
		c := p.Child(&root, i)
		if c.Height != 1 {
			t.Fatalf("child height %d", c.Height)
		}
		if seen[c.State] {
			t.Fatalf("duplicate child state at index %d", i)
		}
		seen[c.State] = true
	}
}

func TestGranularityChangesStateNotStructure(t *testing.T) {
	// Extra SHA rounds change child states (and thus the tree), but a
	// single tree remains internally deterministic.
	base := MustPreset("T3").Params
	g4 := base
	g4.Granularity = 4
	r1, err := CountSequential(base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := CountSequential(g4)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Nodes == 0 || r2.Nodes == 0 {
		t.Fatal("empty trees")
	}
	// Both are trees from the same law; both must be reproducible.
	r1b, _ := CountSequential(base)
	if r1 != r1b {
		t.Fatal("sequential count not reproducible")
	}
	root := base.Root()
	if base.Child(&root, 0) == g4.Child(&root, 0) {
		t.Fatal("granularity did not change the hash chain")
	}
}

func TestBinomialRootChildren(t *testing.T) {
	p := MustPreset("T3S").Params
	root := p.Root()
	if got := p.NumChildren(&root); got != 2000 {
		t.Fatalf("root children = %d, want 2000", got)
	}
}

func TestBinomialChildCountLaw(t *testing.T) {
	// Non-root nodes have exactly 0 or m children, with empirical
	// frequency of m close to q.
	p := MustPreset("T3M").Params
	root := p.Root()
	withChildren := 0
	const n = 2000
	for i := 0; i < n; i++ {
		c := p.Child(&root, i)
		k := p.NumChildren(&c)
		if k != 0 && k != p.NonLeafBF {
			t.Fatalf("binomial child count %d, want 0 or %d", k, p.NonLeafBF)
		}
		if k == p.NonLeafBF {
			withChildren++
		}
	}
	got := float64(withChildren) / n
	if math.Abs(got-p.NonLeafProb) > 0.05 {
		t.Fatalf("non-leaf frequency %v, want ~%v", got, p.NonLeafProb)
	}
}

func TestGeometricDepthCap(t *testing.T) {
	p := MustPreset("T1").Params
	res, err := CountSequential(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDepth > p.GenMax {
		t.Fatalf("geometric tree reached depth %d > GenMax %d", res.MaxDepth, p.GenMax)
	}
	if res.Nodes < 100 {
		t.Fatalf("T1-style tree suspiciously small: %d nodes", res.Nodes)
	}
}

func TestGeometricShapes(t *testing.T) {
	for _, shape := range []GeoShape{ShapeLinear, ShapeExpDec, ShapeCyclic, ShapeFixed} {
		p := Params{Type: Geometric, RootSeed: 7, B0: 3, GenMax: 8, Shape: shape}
		res, ok, err := CountLimited(p, 5_000_000)
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if !ok {
			t.Fatalf("%v: tree exceeded safety limit", shape)
		}
		if res.Nodes == 0 {
			t.Fatalf("%v: empty tree", shape)
		}
		if res.MaxDepth > p.GenMax {
			t.Fatalf("%v: depth %d > GenMax", shape, res.MaxDepth)
		}
	}
}

func TestCountSequentialSmallTree(t *testing.T) {
	// Fully hand-checkable law: B0=3, q=0 means the root has 3 leaf
	// children: 4 nodes, 3 leaves, depth 1.
	p := Params{Type: Binomial, RootSeed: 1, B0: 3, NonLeafBF: 2, NonLeafProb: 0}
	res, err := CountSequential(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 4 || res.Leaves != 3 || res.MaxDepth != 1 {
		t.Fatalf("got %+v, want 4 nodes, 3 leaves, depth 1", res)
	}
}

func TestCountNodesVsLeavesInvariant(t *testing.T) {
	// In a binomial tree with branching m, internal non-root nodes have
	// exactly m children: nodes = 1 + B0 + m*(internal non-root), and
	// leaves + internal = nodes. Verify the derived identity
	// nodes - 1 - B0 = m * (nodes - leaves - 1) for several trees.
	for _, name := range []string{"T3", "T3S"} {
		p := MustPreset(name).Params
		res, err := CountSequential(p)
		if err != nil {
			t.Fatal(err)
		}
		lhs := res.Nodes - 1 - uint64(p.B0)
		rhs := uint64(p.NonLeafBF) * (res.Nodes - res.Leaves - 1)
		if lhs != rhs {
			t.Fatalf("%s: structural identity violated: %d != %d (%+v)", name, lhs, rhs, res)
		}
	}
}

func TestCountLimitedAborts(t *testing.T) {
	p := MustPreset("T3S").Params
	res, ok, err := CountLimited(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("limit not enforced")
	}
	if res.Nodes != 101 {
		t.Fatalf("aborted at %d nodes, want 101", res.Nodes)
	}
}

func TestRealizedSizeNearExpectation(t *testing.T) {
	// The realized size of T3S should be within a factor of ~3 of its
	// binomial expectation 1 + b0/(1 - m*q) ≈ 1e5 (the distribution is
	// heavy-tailed but the root fan-out of 2000 concentrates the sum).
	p := MustPreset("T3S").Params
	res, err := CountSequential(p)
	if err != nil {
		t.Fatal(err)
	}
	exp := 1 + p.B0/(1-float64(p.NonLeafBF)*p.NonLeafProb)
	if float64(res.Nodes) < exp/3 || float64(res.Nodes) > exp*3 {
		t.Fatalf("T3S realized %d nodes vs expected %.0f — preset needs retuning", res.Nodes, exp)
	}
}

func TestFastHashMatchesLaw(t *testing.T) {
	// The fast hash must produce a different tree with the same law:
	// root children exact, non-leaf frequency close to q.
	p := MustPreset("T3M").Params
	p.Hash = HashFast
	root := p.Root()
	if got := p.NumChildren(&root); got != 2000 {
		t.Fatalf("fast-hash root children = %d", got)
	}
	withChildren := 0
	const n = 4000
	for i := 0; i < n; i++ {
		c := p.Child(&root, i)
		if p.NumChildren(&c) != 0 {
			withChildren++
		}
	}
	got := float64(withChildren) / n
	if math.Abs(got-p.NonLeafProb) > 0.05 {
		t.Fatalf("fast-hash non-leaf frequency %v, want ~%v", got, p.NonLeafProb)
	}
}

func TestAppendChildren(t *testing.T) {
	p := MustPreset("T3").Params
	root := p.Root()
	kids := p.AppendChildren(nil, &root)
	if len(kids) != p.NumChildren(&root) {
		t.Fatalf("AppendChildren returned %d, want %d", len(kids), p.NumChildren(&root))
	}
	for i, c := range kids {
		if c != p.Child(&root, i) {
			t.Fatalf("child %d mismatch", i)
		}
	}
	// Appends to an existing slice without clobbering.
	prefix := []Node{root}
	out := p.AppendChildren(prefix, &root)
	if len(out) != 1+len(kids) || out[0] != root {
		t.Fatal("AppendChildren clobbered prefix")
	}
}

func TestPresetRegistry(t *testing.T) {
	names := PresetNames()
	if len(names) < 6 {
		t.Fatalf("only %d presets", len(names))
	}
	for _, n := range names {
		info, ok := Preset(n)
		if !ok {
			t.Fatalf("PresetNames lists unknown preset %q", n)
		}
		if info.Name != n {
			t.Fatalf("preset %q has Name %q", n, info.Name)
		}
		if err := info.Params.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", n, err)
		}
	}
	if _, ok := Preset("NOPE"); ok {
		t.Fatal("unknown preset found")
	}
	// Paper trees carry their Table I sizes.
	if MustPreset("T3XXL").PaperSize != 2793220501 {
		t.Fatal("T3XXL paper size wrong")
	}
	if MustPreset("T3WL").PaperSize != 157063495159 {
		t.Fatal("T3WL paper size wrong")
	}
}

func TestMustPresetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustPreset did not panic")
		}
	}()
	MustPreset("NOPE")
}

// Property: NumChildren is a pure function of the node, and children are
// insensitive to traversal history.
func TestPropertyPureGeneration(t *testing.T) {
	p := MustPreset("T3M").Params
	root := p.Root()
	f := func(idx uint16, idx2 uint8) bool {
		c := p.Child(&root, int(idx))
		n1 := p.NumChildren(&c)
		n2 := p.NumChildren(&c)
		if n1 != n2 {
			return false
		}
		if n1 > 0 {
			g1 := p.Child(&c, int(idx2)%n1)
			g2 := p.Child(&c, int(idx2)%n1)
			return g1 == g2
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: rand31 values are in [0, 2^31) and toProb in [0,1).
func TestPropertyRand31Range(t *testing.T) {
	p := MustPreset("T3M").Params
	root := p.Root()
	f := func(idx uint16) bool {
		c := p.Child(&root, int(idx))
		v := rand31(&c.State)
		return v < 1<<31 && toProb(v) >= 0 && toProb(v) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkChildSHA1(b *testing.B) {
	p := MustPreset("T3L").Params
	root := p.Root()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Child(&root, i)
	}
}

func BenchmarkChildFast(b *testing.B) {
	p := MustPreset("T3L-FAST").Params
	root := p.Root()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Child(&root, i)
	}
}

func BenchmarkCountSequentialT3S(b *testing.B) {
	p := MustPreset("T3S").Params
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CountSequential(p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStringers(t *testing.T) {
	cases := map[string]string{
		Binomial.String():    "Binomial",
		Geometric.String():   "Geometric",
		Hybrid.String():      "Hybrid",
		TreeType(9).String(): "TreeType(9)",
		ShapeLinear.String(): "Linear",
		ShapeExpDec.String(): "ExpDec",
		ShapeCyclic.String(): "Cyclic",
		ShapeFixed.String():  "Fixed",
		GeoShape(9).String(): "GeoShape(9)",
		HashSHA1.String():    "SHA1",
		HashFast.String():    "Fast",
		Hash(9).String():     "Hash(9)",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("stringer: got %q want %q", got, want)
		}
	}
}

func TestHybridValidate(t *testing.T) {
	good := MustPreset("H-TINY").Params
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Type: Hybrid, B0: 0, CutoffDepth: 3, GenMax: 3},
		{Type: Hybrid, B0: 4, CutoffDepth: 0, GenMax: 3},
		{Type: Hybrid, B0: 4, CutoffDepth: 5, GenMax: 3},
		{Type: Hybrid, B0: 4, CutoffDepth: 3, GenMax: 3, NonLeafBF: -1},
		{Type: Hybrid, B0: 4, CutoffDepth: 3, GenMax: 3, NonLeafBF: 2, NonLeafProb: 1.5},
		{Type: Hybrid, B0: 4, CutoffDepth: 3, GenMax: 3, NonLeafBF: 2, NonLeafProb: 0.6},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("bad hybrid %d accepted", i)
		}
	}
}

func TestHybridLawSwitchesAtCutoff(t *testing.T) {
	p := MustPreset("H-TINY").Params
	res, err := CountSequential(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes < 1000 {
		t.Fatalf("H-TINY too small: %d", res.Nodes)
	}
	// Above the cutoff the law is geometric (any child count possible);
	// below it, binomial: exactly 0 or m children. Walk a few levels.
	var belowCutoff []Node
	stack := []Node{p.Root()}
	for len(stack) > 0 && len(belowCutoff) < 200 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.Height >= p.CutoffDepth {
			belowCutoff = append(belowCutoff, n)
			continue
		}
		stack = p.AppendChildren(stack, &n)
	}
	if len(belowCutoff) == 0 {
		t.Fatal("no nodes below cutoff")
	}
	for _, n := range belowCutoff {
		k := p.NumChildren(&n)
		if k != 0 && k != p.NonLeafBF {
			t.Fatalf("below-cutoff node has %d children, want 0 or %d", k, p.NonLeafBF)
		}
	}
}

func TestGeometricShapeValues(t *testing.T) {
	p := Params{Type: Geometric, B0: 8, GenMax: 10}
	// Linear decreases to 0 at GenMax.
	p.Shape = ShapeLinear
	if b := p.branchFactor(0); b != 8 {
		t.Fatalf("linear b(0) = %v", b)
	}
	if b := p.branchFactor(10); b != 0 {
		t.Fatalf("linear b(GenMax) = %v", b)
	}
	// Fixed stays constant.
	p.Shape = ShapeFixed
	if p.branchFactor(0) != 8 || p.branchFactor(9) != 8 {
		t.Fatal("fixed shape varies")
	}
	// Cyclic is 0 late in the depth range.
	p.Shape = ShapeCyclic
	if b := p.branchFactor(9); b != 0 {
		t.Fatalf("cyclic b(9) = %v, want 0 beyond 5/6 depth", b)
	}
	// ExpDec decreases with depth.
	p.Shape = ShapeExpDec
	if p.branchFactor(1) <= p.branchFactor(9) {
		t.Fatal("expdec not decreasing")
	}
}

// TestChildGenMatchesChild is the exactness contract of batched child
// generation: for every tree family, hash and granularity, a ChildGen
// re-staged across parents, the way the engine reuses its per-rank
// generator, must produce bit-identical children to Params.Child, which
// stages a fresh one per call — nothing of the previous parent may
// leak. (The hash itself is held to crypto/sha1 and to recorded tree
// sizes in sha1block_test.go.)
func TestChildGenMatchesChild(t *testing.T) {
	params := []Params{
		{Type: Binomial, RootSeed: 19, B0: 12, NonLeafBF: 4, NonLeafProb: 0.23},
		{Type: Binomial, RootSeed: 19, B0: 12, NonLeafBF: 4, NonLeafProb: 0.23, Granularity: 3},
		{Type: Geometric, RootSeed: 42, B0: 3, GenMax: 6, Shape: ShapeLinear},
		{Type: Hybrid, RootSeed: 7, B0: 3, GenMax: 8, CutoffDepth: 3, NonLeafBF: 4, NonLeafProb: 0.2},
		{Type: Binomial, RootSeed: 19, B0: 12, NonLeafBF: 4, NonLeafProb: 0.23, Hash: HashFast},
	}
	for _, p := range params {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		var g ChildGen
		// Walk a few levels, re-staging the one generator per parent.
		frontier := []Node{p.Root()}
		for depth := 0; depth < 3 && len(frontier) > 0; depth++ {
			var next []Node
			for _, parent := range frontier {
				parent := parent
				n := g.Reset(&p, &parent)
				if want := p.NumChildren(&parent); n != want || g.N() != want {
					t.Fatalf("%v: Reset returned %d children, NumChildren says %d", p.Type, n, want)
				}
				for i := 0; i < n; i++ {
					got, want := g.Child(i), p.Child(&parent, i)
					if got != want {
						t.Fatalf("%v/%v gran=%d: child %d of %v differs:\n got %v\nwant %v",
							p.Type, p.Hash, p.Granularity, i, parent, got, want)
					}
					if len(next) < 64 {
						next = append(next, got)
					}
				}
			}
			frontier = next
		}
	}
}

// TestChildGenOutOfOrder: the engine may generate children of a staged
// parent in any resumption pattern; index order must not matter.
func TestChildGenOutOfOrder(t *testing.T) {
	p := MustPreset("H-TINY").Params
	root := p.Root()
	var g ChildGen
	n := g.Reset(&p, &root)
	if n < 2 {
		t.Fatalf("root has %d children, need at least 2", n)
	}
	for _, i := range []int{n - 1, 0, n / 2, 0, n - 1} {
		if got, want := g.Child(i), p.Child(&root, i); got != want {
			t.Fatalf("out-of-order child %d differs", i)
		}
	}
}
