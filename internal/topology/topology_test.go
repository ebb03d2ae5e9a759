package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	if NodesPerCube != 12 {
		t.Fatalf("NodesPerCube = %d, want 12 (2x3x2)", NodesPerCube)
	}
	if NodesPerRack != 96 {
		t.Fatalf("NodesPerRack = %d, want 96 (paper §IV-B)", NodesPerRack)
	}
}

func TestKComputerSize(t *testing.T) {
	m := KComputer()
	if n := m.Nodes(); n != 82944 {
		t.Fatalf("KComputer nodes = %d, want 82944", n)
	}
}

func TestMachineValidate(t *testing.T) {
	if err := (Machine{1, 1, 1}).Validate(); err != nil {
		t.Fatalf("valid machine rejected: %v", err)
	}
	for _, m := range []Machine{{0, 1, 1}, {1, -1, 1}, {1, 1, 0}} {
		if m.Validate() == nil {
			t.Fatalf("invalid machine %+v accepted", m)
		}
	}
}

func TestEuclid(t *testing.T) {
	a := Coord{0, 0, 0, 0, 0, 0}
	if Euclid(a, a) != 0 {
		t.Fatal("distance to self not 0")
	}
	b := Coord{3, 4, 0, 0, 0, 0}
	if got := Euclid(a, b); got != 5 {
		t.Fatalf("Euclid = %v, want 5", got)
	}
	c := Coord{1, 1, 1, 1, 1, 1}
	if got := Euclid(a, c); math.Abs(got-math.Sqrt(6)) > 1e-12 {
		t.Fatalf("Euclid = %v, want sqrt(6)", got)
	}
	if Euclid(a, b) != Euclid(b, a) {
		t.Fatal("Euclid not symmetric")
	}
}

func TestTorusDist(t *testing.T) {
	cases := []struct{ a, b, size, want int }{
		{0, 0, 8, 0},
		{0, 1, 8, 1},
		{0, 7, 8, 1}, // wraps
		{0, 4, 8, 4},
		{2, 6, 8, 4},
		{0, 2, 3, 1}, // b-ring of size 3 wraps
		{0, 0, 1, 0},
		{0, 5, 1, 0}, // degenerate dimension
	}
	for _, c := range cases {
		if got := torusDist(c.a, c.b, c.size); got != c.want {
			t.Errorf("torusDist(%d,%d,%d) = %d, want %d", c.a, c.b, c.size, got, c.want)
		}
	}
}

func TestHops(t *testing.T) {
	m := Machine{CubesX: 4, CubesY: 4, CubesZ: 8}
	a := Coord{0, 0, 0, 0, 0, 0}
	if m.Hops(a, a) != 0 {
		t.Fatal("hops to self not 0")
	}
	sameBlade := Coord{0, 0, 0, 1, 0, 0}
	if got := m.Hops(a, sameBlade); got != 1 {
		t.Fatalf("same-blade hops = %d, want 1", got)
	}
	sameCube := Coord{0, 0, 0, 1, 2, 1}
	// a:1 + b: torus(0,2,3)=1 + c:1 = 3
	if got := m.Hops(a, sameCube); got != 3 {
		t.Fatalf("intra-cube hops = %d, want 3", got)
	}
	wrapX := Coord{3, 0, 0, 0, 0, 0}
	if got := m.Hops(a, wrapX); got != 1 {
		t.Fatalf("torus-wrap hops = %d, want 1", got)
	}
	far := Coord{2, 2, 4, 1, 1, 1}
	if got := m.Hops(a, far); got != 2+2+4+1+1+1 {
		t.Fatalf("far hops = %d", got)
	}
}

func TestHopsNeverZeroForDistinctNodes(t *testing.T) {
	// A 1x1x1 machine still has 12 distinct nodes; hops between any two
	// distinct nodes must be >= 1 even when torus wrap collapses.
	m := Machine{1, 1, 1}
	alloc, err := Allocate(m, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range alloc.NodeList {
		for k, q := range alloc.NodeList {
			h := m.Hops(p, q)
			if i == k && h != 0 {
				t.Fatalf("self hops %d", h)
			}
			if i != k && h < 1 {
				t.Fatalf("hops(%v,%v) = %d", p, q, h)
			}
		}
	}
}

func TestHierarchyPredicates(t *testing.T) {
	a := Coord{1, 2, 3, 0, 1, 0}
	sameBlade := Coord{1, 2, 3, 1, 1, 1}
	sameCube := Coord{1, 2, 3, 0, 2, 0}
	sameRack := Coord{1, 2, 5, 0, 1, 0}
	other := Coord{2, 2, 3, 0, 1, 0}
	if !SameBlade(a, sameBlade) || !SameCube(a, sameBlade) || !SameRack(a, sameBlade) {
		t.Fatal("same-blade relations")
	}
	if SameBlade(a, sameCube) || !SameCube(a, sameCube) {
		t.Fatal("same-cube relations")
	}
	if SameCube(a, sameRack) || !SameRack(a, sameRack) {
		t.Fatal("same-rack relations")
	}
	if SameRack(a, other) {
		t.Fatal("cross-rack detected as same rack")
	}
}

func TestAllocateErrors(t *testing.T) {
	m := Machine{2, 2, 2}
	if _, err := Allocate(m, 0); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := Allocate(m, m.Nodes()+1); err == nil {
		t.Fatal("oversized allocation accepted")
	}
	if _, err := Allocate(Machine{0, 1, 1}, 1); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

func TestAllocateExactAndCompact(t *testing.T) {
	m := KComputer()
	for _, n := range []int{1, 12, 13, 96, 128, 1024, 8192} {
		alloc, err := Allocate(m, n)
		if err != nil {
			t.Fatalf("Allocate(%d): %v", n, err)
		}
		if alloc.Nodes() != n {
			t.Fatalf("Allocate(%d) returned %d nodes", n, alloc.Nodes())
		}
		// All nodes unique and inside the declared box.
		seen := map[Coord]bool{}
		for _, c := range alloc.NodeList {
			if seen[c] {
				t.Fatalf("duplicate node %v in allocation of %d", c, n)
			}
			seen[c] = true
			if c.X >= alloc.DX || c.Y >= alloc.DY || c.Z >= alloc.DZ {
				t.Fatalf("node %v outside box %dx%dx%d", c, alloc.DX, alloc.DY, alloc.DZ)
			}
		}
		// Box is not absurdly large.
		if alloc.DX*alloc.DY*alloc.DZ*NodesPerCube >= 2*n+2*NodesPerCube*(alloc.DY*alloc.DZ) {
			t.Fatalf("box %dx%dx%d too loose for %d nodes", alloc.DX, alloc.DY, alloc.DZ, n)
		}
	}
}

func TestAllocationBladeContiguity(t *testing.T) {
	// Within one cube, allocation order must enumerate blade by blade so
	// 8G places groups on as few blades as possible.
	m := KComputer()
	alloc, err := Allocate(m, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i += 4 {
		blade := alloc.NodeList[i].B
		for k := i; k < i+4; k++ {
			if alloc.NodeList[k].B != blade {
				t.Fatalf("nodes %d..%d not on one blade: %v", i, i+3, alloc.NodeList[i:i+4])
			}
		}
	}
}

func TestAllocate8192SpansManyRacks(t *testing.T) {
	// Paper: "an allocation of 8192 nodes can easily span across more
	// than 80 racks" and routes can exceed 10 hops.
	m := KComputer()
	alloc, err := Allocate(m, 8192)
	if err != nil {
		t.Fatal(err)
	}
	racks := map[[2]int]bool{}
	for _, c := range alloc.NodeList {
		racks[[2]int{c.X, c.Y}] = true
	}
	if len(racks) < 80 {
		t.Fatalf("8192-node allocation spans %d racks, paper says >80", len(racks))
	}
	job, err := PlaceJob(alloc, 8192, OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	if job.MaxHops() <= 10 {
		t.Fatalf("max hops = %d, paper observed >10", job.MaxHops())
	}
}

func TestPlacementPolicies(t *testing.T) {
	m := KComputer()
	const nranks = 64

	oneN, err := NewJob(m, nranks, OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	if oneN.Alloc.Nodes() != nranks {
		t.Fatalf("1/N used %d nodes, want %d", oneN.Alloc.Nodes(), nranks)
	}
	for i := 0; i < nranks; i++ {
		if oneN.Core(i) != 0 {
			t.Fatalf("1/N rank %d on core %d", i, oneN.Core(i))
		}
		for k := i + 1; k < nranks; k++ {
			if oneN.SameNode(i, k) {
				t.Fatalf("1/N ranks %d,%d share a node", i, k)
			}
		}
	}

	g, err := NewJob(m, nranks, EightGrouped)
	if err != nil {
		t.Fatal(err)
	}
	if g.Alloc.Nodes() != nranks/8 {
		t.Fatalf("8G used %d nodes, want %d", g.Alloc.Nodes(), nranks/8)
	}
	for i := 0; i < nranks; i++ {
		if want := i % 8; g.Core(i) != want {
			t.Fatalf("8G rank %d core %d, want %d", i, g.Core(i), want)
		}
		if !g.SameNode(i, i-i%8) {
			t.Fatalf("8G rank %d not with group leader", i)
		}
	}
	// Consecutive ranks in the same group share a node.
	if !g.SameNode(0, 7) || g.SameNode(7, 8) {
		t.Fatal("8G grouping wrong at boundary")
	}

	rr, err := NewJob(m, nranks, EightRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	nnodes := nranks / 8
	for i := 0; i < nranks; i++ {
		if want := i / nnodes; rr.Core(i) != want {
			t.Fatalf("8RR rank %d core %d, want %d", i, rr.Core(i), want)
		}
	}
	// Ranks i and i+nnodes share a node; consecutive ranks do not
	// (except where the allocation is a single node).
	if !rr.SameNode(0, nnodes) {
		t.Fatal("8RR ranks 0 and nnodes should share a node")
	}
	if rr.SameNode(0, 1) {
		t.Fatal("8RR consecutive ranks share a node")
	}
}

func TestPlacementDivisibility(t *testing.T) {
	m := KComputer()
	if _, err := NewJob(m, 12, EightGrouped); err == nil {
		t.Fatal("8G with 12 ranks accepted")
	}
	if _, err := NewJob(m, 0, OnePerNode); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

func TestJobDistanceSymmetryAndIdentity(t *testing.T) {
	m := KComputer()
	job, err := NewJob(m, 128, OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	f := func(i, k uint8) bool {
		a, b := int(i)%128, int(k)%128
		if job.Distance(a, b) != job.Distance(b, a) {
			return false
		}
		if a == b && job.Distance(a, b) != 0 {
			return false
		}
		if a != b && job.Placement == OnePerNode && job.Distance(a, b) <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestJobDistanceSq: the integer squared distance the skewed selector
// indexes its weights by is Distance squared exactly — Sqrt of it is
// bit-for-bit the float Euclid computes — and stays inside
// MaxDistanceSq, for every pair under each placement.
func TestJobDistanceSq(t *testing.T) {
	for _, p := range []Placement{OnePerNode, EightRoundRobin, EightGrouped} {
		job, err := NewJob(KComputer(), 256, p)
		if err != nil {
			t.Fatal(err)
		}
		reached := 0
		for i := 0; i < job.Ranks(); i++ {
			for k := 0; k < job.Ranks(); k++ {
				d2 := job.DistanceSq(i, k)
				if d2 != distSq(job.Coord(i), job.Coord(k)) {
					t.Fatalf("%v: DistanceSq(%d, %d) = %d from the packed words, %d from the Coords",
						p, i, k, d2, distSq(job.Coord(i), job.Coord(k)))
				}
				if math.Sqrt(float64(d2)) != job.Distance(i, k) {
					t.Fatalf("%v: sqrt(DistanceSq(%d, %d)) = %v, Distance = %v", p, i, k, math.Sqrt(float64(d2)), job.Distance(i, k))
				}
				if d2 > job.MaxDistanceSq() {
					t.Fatalf("%v: DistanceSq(%d, %d) = %d exceeds MaxDistanceSq %d", p, i, k, d2, job.MaxDistanceSq())
				}
				reached = max(reached, d2)
			}
		}
		// The bound is the bounding box's diagonal; a partly filled last
		// cube can leave the far corner empty, but not by much.
		if reached < job.MaxDistanceSq()/2 {
			t.Fatalf("%v: largest DistanceSq %d is far below the bound %d", p, reached, job.MaxDistanceSq())
		}
	}
}

// Property: triangle inequality holds for Euclid over arbitrary coords.
func TestPropertyEuclidTriangle(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, cx, cy, cz int8) bool {
		a := Coord{int(ax), int(ay), int(az), 0, 0, 0}
		b := Coord{int(bx), int(by), int(bz), 1, 1, 1}
		c := Coord{int(cx), int(cy), int(cz), 0, 2, 1}
		return Euclid(a, c) <= Euclid(a, b)+Euclid(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: hop metric is symmetric and satisfies identity.
func TestPropertyHopsMetric(t *testing.T) {
	m := Machine{CubesX: 6, CubesY: 5, CubesZ: 8}
	alloc, err := Allocate(m, 240)
	if err != nil {
		t.Fatal(err)
	}
	f := func(i, k uint8) bool {
		p := alloc.NodeList[int(i)%240]
		q := alloc.NodeList[int(k)%240]
		h1, h2 := m.Hops(p, q), m.Hops(q, p)
		if h1 != h2 {
			return false
		}
		if p == q {
			return h1 == 0
		}
		return h1 >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
