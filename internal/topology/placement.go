package topology

import "fmt"

// Placement names one of the paper's three rank-to-node mappings
// (paper §II-B, Figure 2).
type Placement int

const (
	// OnePerNode ("1/N") places one rank per compute node: rank i runs
	// on allocated node i.
	OnePerNode Placement = iota
	// EightRoundRobin ("8RR") places 8 ranks per node with round-robin
	// numbering: ranks i, i+nnodes, i+2*nnodes, ... share node i, so
	// consecutive ranks land on different nodes.
	EightRoundRobin
	// EightGrouped ("8G") packs consecutive ranks: ranks 8k..8k+7 share
	// node k.
	EightGrouped
)

func (p Placement) String() string {
	switch p {
	case OnePerNode:
		return "1/N"
	case EightRoundRobin:
		return "8RR"
	case EightGrouped:
		return "8G"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// RanksPerNode returns how many ranks share a compute node under p.
func (p Placement) RanksPerNode() int {
	if p == OnePerNode {
		return 1
	}
	return CoresPerNode
}

// Job is a set of ranks placed on an allocation. It provides the
// coordinate, core and distance queries the work-stealing runtime and
// victim selectors need.
type Job struct {
	Alloc     *Allocation
	Placement Placement
	// coord[i] is the node coordinate of rank i; core[i] its core index.
	coord []Coord
	core  []int
	// packed[i] is coord[i] in one word, which the per-send latency
	// lookup and the per-draw distance of the skewed selector read
	// instead of two 48-byte Coords; nil when some coordinate does not
	// fit the word. maxDistSq bounds DistanceSq over the job's ranks.
	packed    []packedCoord
	maxDistSq int
}

// NewJob allocates nodes on machine m for nranks ranks under the given
// placement policy and returns the placed job. The number of compute
// nodes used is nranks for OnePerNode and nranks/8 otherwise (nranks
// must then be a multiple of 8).
func NewJob(m Machine, nranks int, p Placement) (*Job, error) {
	if nranks <= 0 {
		return nil, fmt.Errorf("topology: non-positive rank count %d", nranks)
	}
	rpn := p.RanksPerNode()
	if nranks%rpn != 0 {
		return nil, fmt.Errorf("topology: %d ranks not divisible by %d ranks/node (%v)", nranks, rpn, p)
	}
	nnodes := nranks / rpn
	alloc, err := Allocate(m, nnodes)
	if err != nil {
		return nil, err
	}
	return PlaceJob(alloc, nranks, p)
}

// PlaceJob places nranks ranks on an existing allocation.
func PlaceJob(alloc *Allocation, nranks int, p Placement) (*Job, error) {
	rpn := p.RanksPerNode()
	if nranks%rpn != 0 {
		return nil, fmt.Errorf("topology: %d ranks not divisible by %d ranks/node (%v)", nranks, rpn, p)
	}
	nnodes := nranks / rpn
	if nnodes > alloc.Nodes() {
		return nil, fmt.Errorf("%w: placement needs %d nodes, allocation has %d", ErrTooLarge, nnodes, alloc.Nodes())
	}
	j := &Job{
		Alloc:     alloc,
		Placement: p,
		coord:     make([]Coord, nranks),
		core:      make([]int, nranks),
	}
	for rank := 0; rank < nranks; rank++ {
		var node, core int
		switch p {
		case OnePerNode:
			node, core = rank, 0
		case EightRoundRobin:
			node, core = rank%nnodes, rank/nnodes
		case EightGrouped:
			node, core = rank/CoresPerNode, rank%CoresPerNode
		default:
			return nil, fmt.Errorf("topology: unknown placement %v", p)
		}
		j.coord[rank] = alloc.NodeList[node]
		j.core[rank] = core
	}
	j.packCoords()
	return j, nil
}

// packCoords fills maxDistSq and packed from coord.
func (j *Job) packCoords() {
	if len(j.coord) == 0 {
		return
	}
	lo, hi := j.coord[0], j.coord[0]
	for _, c := range j.coord {
		lo = Coord{min(lo.X, c.X), min(lo.Y, c.Y), min(lo.Z, c.Z), min(lo.A, c.A), min(lo.B, c.B), min(lo.C, c.C)}
		hi = Coord{max(hi.X, c.X), max(hi.Y, c.Y), max(hi.Z, c.Z), max(hi.A, c.A), max(hi.B, c.B), max(hi.C, c.C)}
	}
	j.maxDistSq = distSq(lo, hi)
	packed := make([]packedCoord, len(j.coord))
	for r, c := range j.coord {
		var ok bool
		if packed[r], ok = pack(c); !ok {
			return
		}
	}
	j.packed = packed
}

// Ranks returns the number of ranks in the job.
func (j *Job) Ranks() int { return len(j.coord) }

// Coord returns the node coordinate of a rank.
func (j *Job) Coord(rank int) Coord { return j.coord[rank] }

// Core returns the core index a rank occupies on its node.
func (j *Job) Core(rank int) int { return j.core[rank] }

// SameNode reports whether two ranks share a compute node.
func (j *Job) SameNode(i, k int) bool { return j.coord[i] == j.coord[k] }

// Distance returns the Euclidean 6-D distance between the nodes hosting
// ranks i and k — the e(i,j) of the paper's skewed selection. Ranks on
// the same node are at distance 0.
func (j *Job) Distance(i, k int) float64 {
	return Euclid(j.coord[i], j.coord[k])
}

// DistanceSq returns the square of Distance(i, k) as the integer it
// is: coordinates are integers, so the sum of squared differences is
// exact, and Distance(i, k) == math.Sqrt(float64(DistanceSq(i, k))).
func (j *Job) DistanceSq(i, k int) int {
	if j.packed == nil {
		return distSq(j.coord[i], j.coord[k])
	}
	return j.packed[i].distSq(j.packed[k])
}

// MaxDistanceSq returns an upper bound on DistanceSq over all rank
// pairs: the squared diagonal of the ranks' bounding box.
func (j *Job) MaxDistanceSq() int { return j.maxDistSq }

// Hops returns the link count between the nodes hosting ranks i and k.
func (j *Job) Hops(i, k int) int {
	return j.Alloc.Machine.Hops(j.coord[i], j.coord[k])
}

// MaxHops returns the largest hop count between any rank pair, computed
// over the allocation's bounding box (cheap: the maximum is realized at
// box corners under Manhattan/torus metrics).
func (j *Job) MaxHops() int {
	a := j.Alloc
	m := a.Machine
	corner1 := Coord{0, 0, 0, 0, 0, 0}
	corner2 := Coord{a.DX - 1, a.DY - 1, a.DZ - 1, SizeA - 1, SizeB - 1, SizeC - 1}
	return m.Hops(corner1, corner2)
}
