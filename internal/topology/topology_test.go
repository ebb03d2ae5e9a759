package topology

import (
	"fmt"
	"math"
	"strings"
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
	for i := range alloc.Nodes() {
		for k := range alloc.Nodes() {
			p, q := alloc.Node(i), alloc.Node(k)
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
		for i := range alloc.Nodes() {
			c := alloc.Node(i)
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
		blade := alloc.Node(i).B
		for k := i; k < i+4; k++ {
			if alloc.Node(k).B != blade {
				t.Fatalf("nodes %d and %d not on one blade: %v, %v", i, k, alloc.Node(i), alloc.Node(k))
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
	for i := range alloc.Nodes() {
		c := alloc.Node(i)
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

// TestParsePlacement: every placement parses back from its String in
// any letter case, and anything else names the accepted spellings.
func TestParsePlacement(t *testing.T) {
	for _, p := range []Placement{OnePerNode, EightRoundRobin, EightGrouped} {
		for _, s := range []string{p.String(), strings.ToLower(p.String())} {
			if got, err := ParsePlacement(s); err != nil || got != p {
				t.Errorf("ParsePlacement(%q) = %v, %v; want %v", s, got, err, p)
			}
		}
	}
	for _, s := range []string{"", "N", "8", "1/N "} {
		_, err := ParsePlacement(s)
		if want := fmt.Sprintf("unknown placement %q (1/N, 8RR, 8G)", s); err == nil || err.Error() != want {
			t.Errorf("ParsePlacement(%q) error %v, want %q", s, err, want)
		}
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

// TestDistanceSqFromEveryIntraPair holds the packed distance (Origin,
// DistanceSqFrom, and DistanceSq through them) to distSq on the Coords
// for every pair of intra-cube positions — the biased subtraction and
// the intraSq table cover each field difference from -2 to 2 — with
// the cube coordinates at 0, 1 and the largest a machine may have, so
// the unmasked x field and the 16-bit squares are reached too.
func TestDistanceSqFromEveryIntraPair(t *testing.T) {
	var coords []Coord
	for _, x := range []int{0, 1, cubeMax - 1} {
		for _, y := range []int{0, cubeMax - 1} {
			for _, z := range []int{0, 1, cubeMax - 1} {
				for a := 0; a < SizeA; a++ {
					for b := 0; b < SizeB; b++ {
						for c := 0; c < SizeC; c++ {
							coords = append(coords, Coord{x, y, z, a, b, c})
						}
					}
				}
			}
		}
	}
	j := &Job{packed: make([]packedCoord, len(coords))}
	for k, c := range coords {
		j.packed[k] = pack(c)
	}
	for i, p := range coords {
		o := j.Origin(i)
		for k, q := range coords {
			if got, want := j.DistanceSqFrom(o, k), distSq(p, q); got != want || j.DistanceSq(i, k) != want {
				t.Fatalf("%v to %v: DistanceSqFrom %d, DistanceSq %d, want %d", p, q, got, j.DistanceSq(i, k), want)
			}
		}
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
		p := alloc.Node(int(i) % 240)
		q := alloc.Node(int(k) % 240)
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

// TestPackedJobMatchesCoords holds the packed job to the coordinate
// arrays it replaced: every rank's Coord and Core, and SameNode,
// DistanceSq and Hops over sampled pairs, equal the formulas applied to
// Allocate's enumeration — cube by cube in (x, y, z) order, blade by
// blade inside a cube — under each placement.
// TestSameGeometry: two jobs are one geometry exactly when every rank
// sits on the same node coordinate. A second NewJob of the same shape
// is; another placement or rank count is not, nor is the same rank
// count and placement cut from a larger allocation.
func TestSameGeometry(t *testing.T) {
	job := func(alloc *Allocation, nranks int, p Placement) *Job {
		t.Helper()
		if alloc == nil {
			var err error
			if alloc, err = Allocate(KComputer(), nranks/p.RanksPerNode()); err != nil {
				t.Fatal(err)
			}
		}
		j, err := PlaceJob(alloc, nranks, p)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a := job(nil, 1024, EightRoundRobin)
	if !a.SameGeometry(job(nil, 1024, EightRoundRobin)) {
		t.Fatal("two placements of the same job differ")
	}
	larger, err := Allocate(KComputer(), 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*Job{job(nil, 1024, EightGrouped), job(nil, 1024, OnePerNode), job(nil, 512, EightRoundRobin), job(larger, 1024, EightRoundRobin)} {
		if a.SameGeometry(b) || b.SameGeometry(a) {
			t.Errorf("%d ranks %v on %d nodes: same geometry as %d ranks %v on %d nodes",
				b.Ranks(), b.Placement, b.Alloc.Nodes(), a.Ranks(), a.Placement, a.Alloc.Nodes())
		}
	}
}

func TestPackedJobMatchesCoords(t *testing.T) {
	m := KComputer()
	for _, nranks := range []int{8, 1024, 8192} {
		for _, p := range []Placement{OnePerNode, EightRoundRobin, EightGrouped} {
			job, err := NewJob(m, nranks, p)
			if err != nil {
				t.Fatal(err)
			}
			a := job.Alloc
			nnodes := nranks / p.RanksPerNode()
			var nodes []Coord
		Fill:
			for x := 0; x < a.DX; x++ {
				for y := 0; y < a.DY; y++ {
					for z := 0; z < a.DZ; z++ {
						for b := 0; b < SizeB; b++ {
							for aa := 0; aa < SizeA; aa++ {
								for c := 0; c < SizeC; c++ {
									if nodes = append(nodes, Coord{x, y, z, aa, b, c}); len(nodes) == nnodes {
										break Fill
									}
								}
							}
						}
					}
				}
			}
			coord, core := make([]Coord, nranks), make([]int, nranks)
			for r := range coord {
				node, cr := r, 0
				switch p {
				case EightRoundRobin:
					node, cr = r%nnodes, r/nnodes
				case EightGrouped:
					node, cr = r/CoresPerNode, r%CoresPerNode
				}
				coord[r], core[r] = nodes[node], cr
				if job.Coord(r) != coord[r] || job.Core(r) != core[r] {
					t.Fatalf("%d ranks %v: rank %d at %v core %d, want %v core %d",
						nranks, p, r, job.Coord(r), job.Core(r), coord[r], core[r])
				}
			}
			for s := 0; s < 4096; s++ {
				i, k := (s*7919)%nranks, (s*104729+s/3)%nranks
				p1, p2 := coord[i], coord[k]
				if job.SameNode(i, k) != (p1 == p2) || job.DistanceSq(i, k) != distSq(p1, p2) || job.Hops(i, k) != m.Hops(p1, p2) {
					t.Fatalf("%d ranks %v: pair (%d, %d) same=%v d2=%d hops=%d, want %v %d %d", nranks, p, i, k,
						job.SameNode(i, k), job.DistanceSq(i, k), job.Hops(i, k), p1 == p2, distSq(p1, p2), m.Hops(p1, p2))
				}
			}
		}
	}
	if err := (Machine{CubesX: 1 << 16, CubesY: 1, CubesZ: 1}).Validate(); err == nil {
		t.Fatal("a dimension past the packed word's 16-bit field validated")
	}
}
