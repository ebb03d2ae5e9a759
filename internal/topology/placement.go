package topology

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

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

// ParsePlacement reads a placement by its paper name, the inverse of
// String: "1/N", "8RR" or "8G", in any letter case.
func ParsePlacement(s string) (Placement, error) {
	for _, p := range []Placement{OnePerNode, EightRoundRobin, EightGrouped} {
		if strings.EqualFold(s, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown placement %q (1/N, 8RR, 8G)", s)
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
	// packed[i] is the node coordinate of rank i, the word the per-send
	// latency lookup and the per-draw distance of the skewed selector
	// read; under OnePerNode it is the allocation's own node list. A
	// rank's core is placement arithmetic (Core). maxDistSq bounds
	// DistanceSq over the job's ranks.
	packed    []packedCoord
	maxDistSq int
}

// NewJob allocates nodes on machine m for nranks ranks under the given
// placement policy and returns the placed job. The number of compute
// nodes used is nranks for OnePerNode and nranks/8 otherwise (nranks
// must then be a multiple of 8).
func NewJob(m Machine, nranks int, p Placement) (*Job, error) {
	if err := CheckJob(m, nranks, p); err != nil {
		return nil, err
	}
	alloc, err := Allocate(m, nranks/p.RanksPerNode())
	if err != nil {
		return nil, err
	}
	return PlaceJob(alloc, nranks, p)
}

// CheckJob returns the error NewJob would return for a job that cannot
// exist — a rank count the placement cannot divide into whole nodes,
// an invalid machine, or more nodes than the machine has — without
// allocating it, so a configuration can be refused before a run.
func CheckJob(m Machine, nranks int, p Placement) error {
	nnodes, err := nodesFor(nranks, p)
	if err != nil {
		return err
	}
	if err := m.Validate(); err != nil {
		return err
	}
	if nnodes > m.Nodes() {
		return fmt.Errorf("%w: want %d nodes, machine has %d", ErrTooLarge, nnodes, m.Nodes())
	}
	return nil
}

// nodesFor returns the node count nranks ranks occupy under p.
func nodesFor(nranks int, p Placement) (int, error) {
	if nranks <= 0 {
		return 0, fmt.Errorf("topology: non-positive rank count %d", nranks)
	}
	rpn := p.RanksPerNode()
	if nranks%rpn != 0 {
		return 0, fmt.Errorf("topology: %d ranks not divisible by %d ranks/node (%v)", nranks, rpn, p)
	}
	return nranks / rpn, nil
}

// PlaceJob places nranks ranks on an existing allocation.
func PlaceJob(alloc *Allocation, nranks int, p Placement) (*Job, error) {
	nnodes, err := nodesFor(nranks, p)
	if err != nil {
		return nil, err
	}
	if nnodes > alloc.Nodes() {
		return nil, fmt.Errorf("%w: placement needs %d nodes, allocation has %d", ErrTooLarge, nnodes, alloc.Nodes())
	}
	j := &Job{Alloc: alloc, Placement: p}
	switch p {
	case OnePerNode:
		j.packed = alloc.nodes[:nranks:nranks]
	case EightRoundRobin, EightGrouped:
		j.packed = make([]packedCoord, nranks)
		for rank := range j.packed {
			node := rank / CoresPerNode
			if p == EightRoundRobin {
				node = rank % nnodes
			}
			j.packed[rank] = alloc.nodes[node]
		}
	default:
		return nil, fmt.Errorf("topology: unknown placement %v", p)
	}
	lo, hi := j.Coord(0), j.Coord(0)
	for r := range j.packed {
		c := j.Coord(r)
		lo = Coord{min(lo.X, c.X), min(lo.Y, c.Y), min(lo.Z, c.Z), min(lo.A, c.A), min(lo.B, c.B), min(lo.C, c.C)}
		hi = Coord{max(hi.X, c.X), max(hi.Y, c.Y), max(hi.Z, c.Z), max(hi.A, c.A), max(hi.B, c.B), max(hi.C, c.C)}
	}
	j.maxDistSq = distSq(lo, hi)
	return j, nil
}

// Ranks returns the number of ranks in the job.
func (j *Job) Ranks() int { return len(j.packed) }

// Coord returns the node coordinate of a rank.
func (j *Job) Coord(rank int) Coord { return j.packed[rank].unpack() }

// Core returns the core index a rank occupies on its node.
func (j *Job) Core(rank int) int {
	switch j.Placement {
	case EightRoundRobin:
		return rank / (len(j.packed) / CoresPerNode)
	case EightGrouped:
		return rank % CoresPerNode
	}
	return 0
}

// SameNode reports whether two ranks share a compute node.
func (j *Job) SameNode(i, k int) bool { return j.packed[i] == j.packed[k] }

// SameGeometry reports whether two jobs put every rank on the same node
// coordinate, so that everything built from their distances is equal.
func (j *Job) SameGeometry(k *Job) bool { return slices.Equal(j.packed, k.packed) }

// Distance returns the Euclidean 6-D distance between the nodes hosting
// ranks i and k — the e(i,j) of the paper's skewed selection. Ranks on
// the same node are at distance 0.
func (j *Job) Distance(i, k int) float64 {
	return math.Sqrt(float64(j.DistanceSq(i, k)))
}

// DistanceSq returns the square of Distance(i, k) as the integer it
// is: coordinates are integers, so the sum of squared differences is
// exact, and Distance(i, k) == math.Sqrt(float64(DistanceSq(i, k))).
func (j *Job) DistanceSq(i, k int) int { return j.DistanceSqFrom(j.Origin(i), k) }

// MaxDistanceSq returns an upper bound on DistanceSq over all rank
// pairs: the squared diagonal of the ranks' bounding box.
func (j *Job) MaxDistanceSq() int { return j.maxDistSq }

// Hops returns the link count between the nodes hosting ranks i and k.
func (j *Job) Hops(i, k int) int {
	return j.Alloc.Machine.Hops(j.Coord(i), j.Coord(k))
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
