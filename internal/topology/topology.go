// Package topology models a K Computer-like machine: compute nodes
// addressed by 6-dimensional Tofu coordinates, organized hierarchically
// into blades, cubes and racks, with a job allocator and rank-placement
// policies matching the paper's experimental setups.
//
// Geometry (paper §IV-B):
//
//   - 4 nodes form a blade and share a dedicated transport;
//   - 3 blades form a 2x3x2 "cube" of 12 nodes, spanning the three
//     intra-cube dimensions (a, b, c) with sizes (2, 3, 2) — the blade
//     index is the b coordinate;
//   - cubes are joined in a 3-D mesh/torus (x, y, z), with one dimension
//     (z, 8 cubes) staying inside a rack and two (x, y) across racks,
//     so a rack holds 8*12 = 96 nodes.
//
// A node's global coordinate is therefore (x, y, z, a, b, c). The
// paper's skewed victim selection weighs ranks by the inverse Euclidean
// distance between these coordinates.
//
// Coordinates are stored packed, one word per allocated node and per
// rank (packedCoord): Coord is the unpacked view the API hands out, and
// the per-send latency lookup and the skewed selector's distances work
// on the words directly. Machine.Validate bounds every dimension so that
// each coordinate fits its field.
package topology

import (
	"errors"
	"fmt"
	"math"
)

// Intra-cube dimension sizes. These are properties of the Tofu unit
// cell, not configuration.
const (
	SizeA = 2
	SizeB = 3
	SizeC = 2

	// NodesPerCube is the number of compute nodes in one 2x3x2 cube.
	NodesPerCube = SizeA * SizeB * SizeC
	// CubesPerRack is the extent of the intra-rack dimension (z).
	CubesPerRack = 8
	// NodesPerRack is 96 on the K Computer, as the paper notes.
	NodesPerRack = NodesPerCube * CubesPerRack
	// CoresPerNode is the SPARC64 VIIIfx core count.
	CoresPerNode = 8
)

// Coord is the 6-D Tofu coordinate of a compute node.
type Coord struct {
	X, Y, Z int // inter-cube mesh/torus (z = position inside the rack)
	A, B, C int // intra-cube position; B is the blade index
}

func (c Coord) String() string {
	return fmt.Sprintf("(%d,%d,%d,%d,%d,%d)", c.X, c.Y, c.Z, c.A, c.B, c.C)
}

// Euclid returns the Euclidean distance between two node coordinates in
// the 6-D space, exactly as the paper's p(i,j) weighting uses it.
func Euclid(p, q Coord) float64 {
	return math.Sqrt(float64(distSq(p, q)))
}

// distSq returns the squared Euclidean distance between two node
// coordinates, exactly (integer arithmetic).
func distSq(p, q Coord) int {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	da, db, dc := p.A-q.A, p.B-q.B, p.C-q.C
	return dx*dx + dy*dy + dz*dz + da*da + db*db + dc*dc
}

// Machine describes a full system as a 3-D arrangement of cubes:
// CubesX x CubesY racks-worth in the two cross-rack dimensions and
// CubesZ cubes along the intra-rack dimension.
type Machine struct {
	CubesX, CubesY, CubesZ int
}

// KComputer returns the dimensions of the machine used in the paper:
// 864 racks (24 x 36) of 8 cubes each, 82944 compute nodes.
func KComputer() Machine {
	return Machine{CubesX: 24, CubesY: 36, CubesZ: CubesPerRack}
}

// Nodes returns the total number of compute nodes in the machine.
func (m Machine) Nodes() int {
	return m.CubesX * m.CubesY * m.CubesZ * NodesPerCube
}

// Validate reports whether the machine dimensions are usable: positive,
// and small enough that every cube position fits its 16-bit field of
// the packed word a coordinate is stored as.
func (m Machine) Validate() error {
	if m.CubesX <= 0 || m.CubesY <= 0 || m.CubesZ <= 0 {
		return fmt.Errorf("topology: non-positive machine dimensions %+v", m)
	}
	if m.CubesX > cubeMax || m.CubesY > cubeMax || m.CubesZ > cubeMax {
		return fmt.Errorf("topology: machine dimensions %+v exceed %d cubes", m, cubeMax)
	}
	return nil
}

// Hops returns the number of network links a message crosses between
// two nodes: Manhattan distance with wraparound on the torus dimensions
// (x, y, z and the intra-cube b ring) and plain mesh distance on a and
// c. Two nodes on the same blade are 1 hop apart over the blade
// transport; the same node is 0 hops.
func (m Machine) Hops(p, q Coord) int {
	if p == q {
		return 0
	}
	h := torusDist(p.X, q.X, m.CubesX) +
		torusDist(p.Y, q.Y, m.CubesY) +
		torusDist(p.Z, q.Z, m.CubesZ) +
		abs(p.A-q.A) +
		torusDist(p.B, q.B, SizeB) +
		abs(p.C-q.C)
	if h == 0 {
		// Distinct nodes must be at least one hop apart; torus wrap on a
		// dimension of size 1 can collapse the distance.
		h = 1
	}
	return h
}

func torusDist(a, b, size int) int {
	if size <= 1 {
		return 0
	}
	d := abs(a - b)
	if wrap := size - d; wrap < d {
		return wrap
	}
	return d
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// SameBlade reports whether two nodes share a blade (same cube, same
// blade index b, adjacent only through the blade transport).
func SameBlade(p, q Coord) bool {
	return p.X == q.X && p.Y == q.Y && p.Z == q.Z && p.B == q.B
}

// SameCube reports whether two nodes are in the same 12-node cube.
func SameCube(p, q Coord) bool {
	return p.X == q.X && p.Y == q.Y && p.Z == q.Z
}

// SameRack reports whether two nodes are in the same rack (same x, y).
func SameRack(p, q Coord) bool {
	return p.X == q.X && p.Y == q.Y
}

// Allocation is a set of compute nodes assigned to a job, in allocation
// order. The K Computer's scheduler allocates nodes as a compact 3-D
// rectangle of cubes that minimizes average hop distance; Allocate
// reproduces that policy deterministically.
type Allocation struct {
	Machine Machine
	// DX, DY, DZ are the cube-rectangle dimensions of the allocation.
	DX, DY, DZ int
	// nodes holds the allocated node coordinates, packed; rank placement
	// policies index into this list.
	nodes []packedCoord
}

// ErrTooLarge is returned when a job does not fit the machine.
var ErrTooLarge = errors.New("topology: allocation exceeds machine size")

// Allocate reserves nnodes compute nodes as the most compact cube
// rectangle available: among all (dx, dy, dz) boxes with enough nodes it
// picks the one minimizing the box's mean intra-box hop distance proxy
// (dx+dy+dz, then volume). Nodes are enumerated cube by cube in
// (x, y, z) lexicographic order and blade by blade inside each cube, and
// the first nnodes are returned.
func Allocate(m Machine, nnodes int) (*Allocation, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if nnodes <= 0 {
		return nil, fmt.Errorf("topology: non-positive node count %d", nnodes)
	}
	if nnodes > m.Nodes() {
		return nil, fmt.Errorf("%w: want %d nodes, machine has %d", ErrTooLarge, nnodes, m.Nodes())
	}

	cubes := (nnodes + NodesPerCube - 1) / NodesPerCube
	bestDX, bestDY, bestDZ := -1, -1, -1
	bestSpan, bestVol := math.MaxInt, math.MaxInt
	for dz := 1; dz <= m.CubesZ; dz++ {
		for dy := 1; dy <= m.CubesY; dy++ {
			// Smallest dx that fits the remaining cubes.
			dx := (cubes + dy*dz - 1) / (dy * dz)
			if dx > m.CubesX {
				continue
			}
			span := dx + dy + dz
			vol := dx * dy * dz
			if span < bestSpan || (span == bestSpan && vol < bestVol) {
				bestSpan, bestVol = span, vol
				bestDX, bestDY, bestDZ = dx, dy, dz
			}
		}
	}
	if bestDX < 0 {
		return nil, fmt.Errorf("%w: no box fits %d cubes", ErrTooLarge, cubes)
	}

	alloc := &Allocation{Machine: m, DX: bestDX, DY: bestDY, DZ: bestDZ}
	alloc.nodes = make([]packedCoord, 0, nnodes)
Fill:
	for x := 0; x < bestDX; x++ {
		for y := 0; y < bestDY; y++ {
			for z := 0; z < bestDZ; z++ {
				// Enumerate the cube blade by blade (b outer) so that
				// blade-mates are consecutive in allocation order.
				for b := 0; b < SizeB; b++ {
					for a := 0; a < SizeA; a++ {
						for c := 0; c < SizeC; c++ {
							alloc.nodes = append(alloc.nodes, pack(Coord{x, y, z, a, b, c}))
							if len(alloc.nodes) == nnodes {
								break Fill
							}
						}
					}
				}
			}
		}
	}
	return alloc, nil
}

// Nodes returns the number of allocated nodes.
func (a *Allocation) Nodes() int { return len(a.nodes) }

// Node returns the coordinate of allocated node i.
func (a *Allocation) Node(i int) Coord { return a.nodes[i].unpack() }
