// Package uts implements the Unbalanced Tree Search benchmark
// (Prins et al., Olivier et al.): the parallel traversal of an implicit,
// randomly generated, heavily unbalanced tree.
//
// Each tree node carries a 20-byte SHA-1 state. A node's children are
// generated by hashing the parent state with the child index, so the
// tree is fully determined by its parameters: every traversal of the
// same tree visits exactly the same nodes, regardless of hardware,
// language or schedule. Only the traversal order is nondeterministic,
// which is what makes UTS a pure load-balancing benchmark.
//
// Two tree families are supported, as in the reference benchmark:
//
//   - Binomial: the root has B0 children; every other node has
//     NonLeafBF children with probability NonLeafProb and none
//     otherwise. Expected subtree sizes are identical but the variance
//     is enormous — the paper's T3XXL and T3WL trees are binomial.
//   - Geometric: the number of children is geometrically distributed
//     with a depth-dependent mean given by a shape function, and the
//     depth is capped at GenMax.
//
// The Granularity parameter is the number of SHA-1 evaluations per
// child generation (paper §V-B uses 1–24 rounds to vary the compute
// cost of a work item).
//
// Child generation only ever hashes two messages, the 24-byte parent
// state ‖ child index and the 20-byte state of a granularity chain, and
// both are one SHA-1 block. On amd64 CPUs with the SHA extensions every
// path that generates children — ChildGen.Child, Params.Child,
// AppendChildren, CountSequential, CountLimited — hashes them with a
// one-block assembly kernel (sha1block_amd64.s), chosen once at package
// init by CPUID; on every other CPU and GOARCH the same paths call
// crypto/sha1. The bytes are identical either way, so the tree is too.
// Root hashes a 4-byte seed once per tree and stays on crypto/sha1.
package uts

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"math"

	"distws/internal/rng"
)

// StateSize is the size of a node's random state (one SHA-1 digest).
const StateSize = sha1.Size

// State is the splittable random state stored in every tree node.
type State [StateSize]byte

// Node is one implicit tree node: its state determines its children.
type Node struct {
	State  State
	Height int32 // depth in the tree; the root has height 0
	// Job tags the node with the open-system job it belongs to (serving
	// mode). Zero for the single batch tree of a closed run. The tag is
	// bookkeeping, not tree identity: children inherit it unchanged and
	// it never feeds the hash, so the generated tree is independent of
	// the tag.
	Job uint32
}

// NodeBytes is the modeled wire size of a node when stolen: the state
// plus the height, as in the reference implementation's MPI datatype.
// The job tag is simulator bookkeeping and does not travel on the
// modeled wire.
const NodeBytes = StateSize + 4

// TreeType selects the child-generation law.
type TreeType uint8

// Supported tree families.
const (
	Binomial TreeType = iota
	Geometric
	// Hybrid is geometric above CutoffDepth and binomial below it, as
	// in the reference benchmark's hybrid trees: the geometric top
	// fans the frontier out quickly while the binomial bottoms carry
	// the heavy-tailed imbalance. Used by the scaled experiments, where
	// a pure binomial tree small enough to simulate cannot sustain a
	// frontier proportional to thousands of ranks (peak frontier of a
	// near-critical binomial tree grows only like sqrt(size)).
	Hybrid
)

func (t TreeType) String() string {
	switch t {
	case Binomial:
		return "Binomial"
	case Geometric:
		return "Geometric"
	case Hybrid:
		return "Hybrid"
	default:
		return fmt.Sprintf("TreeType(%d)", uint8(t))
	}
}

// GeoShape is the depth profile of the expected branching factor for
// geometric trees.
type GeoShape uint8

// Shape functions from the reference benchmark.
const (
	// ShapeLinear decreases the branching factor linearly to zero at
	// depth GenMax (the reference default).
	ShapeLinear GeoShape = iota
	// ShapeExpDec decays the branching factor exponentially with depth.
	ShapeExpDec
	// ShapeCyclic oscillates the branching factor with depth.
	ShapeCyclic
	// ShapeFixed keeps the branching factor constant until GenMax.
	ShapeFixed
)

func (s GeoShape) String() string {
	switch s {
	case ShapeLinear:
		return "Linear"
	case ShapeExpDec:
		return "ExpDec"
	case ShapeCyclic:
		return "Cyclic"
	case ShapeFixed:
		return "Fixed"
	default:
		return fmt.Sprintf("GeoShape(%d)", uint8(s))
	}
}

// Hash selects the splittable random stream implementation.
type Hash uint8

const (
	// HashSHA1 is the reference BRG-style SHA-1 stream. Use it for all
	// experiments: it is what makes UTS trees portable.
	HashSHA1 Hash = iota
	// HashFast is a SplitMix64-based stream, roughly 20x cheaper. Trees
	// differ from the SHA-1 ones but follow the same law; intended for
	// huge quick tests, not for recorded experiments.
	HashFast
)

func (h Hash) String() string {
	switch h {
	case HashSHA1:
		return "SHA1"
	case HashFast:
		return "Fast"
	default:
		return fmt.Sprintf("Hash(%d)", uint8(h))
	}
}

// Params fully determines a UTS tree.
type Params struct {
	Type TreeType
	// RootSeed is the r parameter: the seed hashed into the root state.
	RootSeed int32

	// B0 is the root's child count for binomial trees, and the initial
	// expected branching factor for geometric trees.
	B0 float64

	// NonLeafBF (m) and NonLeafProb (q) drive binomial generation:
	// each non-root node has m children with probability q.
	NonLeafBF   int
	NonLeafProb float64

	// GenMax (d) is the depth limit for geometric trees.
	GenMax int32
	// Shape is the geometric branching-factor profile.
	Shape GeoShape

	// CutoffDepth is the depth at which a Hybrid tree switches from the
	// geometric law to the binomial law.
	CutoffDepth int32

	// Granularity is the number of hash evaluations per child spawn
	// (>= 1; 0 is treated as 1).
	Granularity int

	// Hash selects the random stream implementation.
	Hash Hash
}

// maxB0 bounds the root branching factor: NumChildren converts it (or,
// for geometric trees, a small multiple of it) to an int, and the
// conversion of a float64 that does not fit is undefined.
const maxB0 = 1 << 31

// Validate reports whether the parameters describe a generable tree.
// The float parameters are checked with the !(x >= lo) idiom so that a
// NaN, which fails every comparison, is rejected with the rest.
func (p Params) Validate() error {
	if !(p.B0 >= 0 && p.B0 <= maxB0) {
		return fmt.Errorf("uts: B0 %v outside [0, 2^31]", p.B0)
	}
	if p.Type == Binomial || p.Type == Hybrid {
		if p.NonLeafBF < 0 {
			return fmt.Errorf("uts: negative NonLeafBF %d", p.NonLeafBF)
		}
		if !(p.NonLeafProb >= 0 && p.NonLeafProb <= 1) {
			return fmt.Errorf("uts: NonLeafProb %v outside [0,1]", p.NonLeafProb)
		}
		if mq := float64(p.NonLeafBF) * p.NonLeafProb; mq >= 1 {
			return fmt.Errorf("uts: supercritical %v tree (m*q = %v >= 1) has infinite expected size", p.Type, mq)
		}
	}
	switch p.Type {
	case Binomial:
		// Nothing beyond the checks above.
	case Geometric:
		if p.B0 == 0 {
			return fmt.Errorf("uts: geometric tree needs positive B0")
		}
		if p.GenMax <= 0 {
			return fmt.Errorf("uts: geometric tree needs positive GenMax, got %d", p.GenMax)
		}
	case Hybrid:
		if p.B0 == 0 {
			return fmt.Errorf("uts: hybrid tree needs positive B0")
		}
		if p.CutoffDepth <= 0 {
			return fmt.Errorf("uts: hybrid tree needs positive CutoffDepth, got %d", p.CutoffDepth)
		}
		if p.GenMax < p.CutoffDepth {
			return fmt.Errorf("uts: hybrid GenMax %d below CutoffDepth %d", p.GenMax, p.CutoffDepth)
		}
	default:
		return fmt.Errorf("uts: unknown tree type %v", p.Type)
	}
	return nil
}

// Root returns the tree's root node for these parameters.
func (p Params) Root() Node {
	var n Node
	n.Height = 0
	switch p.Hash {
	case HashSHA1:
		// BRG-style init: digest of the big-endian seed.
		var seed [4]byte
		binary.BigEndian.PutUint32(seed[:], uint32(p.RootSeed))
		n.State = sha1.Sum(seed[:])
	case HashFast:
		writeFastState(&n.State, rng.Mix64(uint64(uint32(p.RootSeed))))
	}
	return n
}

// rand31 extracts the node's 31-bit random value from its state,
// mirroring the reference rng_rand (the value is taken from the tail of
// the digest).
func rand31(s *State) uint32 {
	return binary.BigEndian.Uint32(s[StateSize-4:]) & 0x7fffffff
}

// toProb maps a 31-bit value to [0, 1).
func toProb(v uint32) float64 { return float64(v) / (1 << 31) }

// NumChildren returns the number of children of n under p. It is a pure
// function of the node state.
func (p Params) NumChildren(n *Node) int { return p.numChildren(n) }

// numChildren is NumChildren for a caller that holds a pointer: the
// expansion loop stages a parent per node and should not copy the
// 64-byte Params to ask.
func (p *Params) numChildren(n *Node) int {
	switch p.Type {
	case Binomial:
		if n.Height == 0 {
			return int(p.B0)
		}
		if toProb(rand31(&n.State)) < p.NonLeafProb {
			return p.NonLeafBF
		}
		return 0
	case Geometric:
		return p.geoChildren(n)
	case Hybrid:
		if n.Height < p.CutoffDepth {
			return p.geoChildren(n)
		}
		if toProb(rand31(&n.State)) < p.NonLeafProb {
			return p.NonLeafBF
		}
		return 0
	default:
		panic(fmt.Sprintf("uts: unknown tree type %v", p.Type))
	}
}

// geoChildren draws the geometric child count for a node.
func (p *Params) geoChildren(n *Node) int {
	if n.Height >= p.GenMax {
		return 0
	}
	b := p.branchFactor(n.Height)
	if b <= 0 {
		return 0
	}
	// Geometric draw with mean b: P(k) = q*(1-q)^k, q = 1/(1+b).
	prob := 1 / (1 + b)
	u := toProb(rand31(&n.State))
	return int(math.Floor(math.Log(1-u) / math.Log(1-prob)))
}

// branchFactor evaluates the geometric shape function at a depth.
func (p *Params) branchFactor(depth int32) float64 {
	d, dmax := float64(depth), float64(p.GenMax)
	switch p.Shape {
	case ShapeLinear:
		return p.B0 * (1 - d/dmax)
	case ShapeExpDec:
		return p.B0 * math.Pow(d+1, -math.Log(p.B0)/math.Log(dmax))
	case ShapeCyclic:
		if d > 5*dmax/6 {
			return 0
		}
		return p.B0 * math.Pow(math.Sin(2*math.Pi*d/dmax), 2)
	case ShapeFixed:
		return p.B0
	default:
		panic(fmt.Sprintf("uts: unknown shape %v", p.Shape))
	}
}

// Child computes the i-th child of parent. The cost is Granularity hash
// evaluations, matching the benchmark's compute-granularity knob. A
// caller that enumerates a node's children should stage a ChildGen
// once instead.
func (p Params) Child(parent *Node, i int) Node {
	var g ChildGen
	g.stage(&p, parent)
	return g.Child(i)
}

// writeFastState expands a 64-bit value into the 20-byte state.
func writeFastState(s *State, v uint64) {
	binary.BigEndian.PutUint64(s[0:8], v)
	binary.BigEndian.PutUint64(s[8:16], rng.Mix64(v))
	binary.BigEndian.PutUint32(s[16:20], uint32(rng.Mix64(v^0xdeadbeef)))
}

// ChildGen generates the children of one parent node with the shared
// per-child work hoisted out of the loop: the parent state is staged
// once into a reusable hash-input buffer on Reset, and each Child call
// only rewrites the 4-byte child index before hashing. Child i of the
// staged parent is bit-identical to Params.Child(parent, i) — ChildGen
// changes the cost of enumeration, never the tree. The zero value is
// ready for Reset; a ChildGen is not safe for concurrent use.
type ChildGen struct {
	gran   int
	n      int
	height int32
	job    uint32
	hash   Hash
	// buf is the staged hash input: the parent state, then the 4-byte
	// child index Child rewrites (HashSHA1; HashFast seeds itself from
	// the first 8 bytes).
	buf [StateSize + 4]byte
}

// Reset stages parent for child generation under p and returns its
// child count (the valid indexes for Child are 0..n-1). p is read, not
// retained.
func (g *ChildGen) Reset(p *Params, parent *Node) int {
	g.stage(p, parent)
	g.n = p.numChildren(parent)
	return g.n
}

// stage is Reset without the child count.
func (g *ChildGen) stage(p *Params, parent *Node) {
	g.gran = max(p.Granularity, 1)
	g.hash = p.Hash
	g.height = parent.Height + 1
	g.job = parent.Job
	copy(g.buf[:StateSize], parent.State[:])
}

// N returns the staged parent's child count.
func (g *ChildGen) N() int { return g.n }

// Child computes the i-th child of the staged parent. The cost is
// Granularity hash evaluations, matching the benchmark's
// compute-granularity knob.
func (g *ChildGen) Child(i int) (child Node) {
	g.ChildInto(&child, i)
	return child
}

// ChildInto writes the i-th child of the staged parent to *dst, every
// field of it, so dst may be a slot holding stale bytes. Generating a
// node where it will live matters once the hash is cheap: a 28-byte
// Node assembled from the kernel's 16- and 4-byte stores and then
// copied by value stalls each copy on store forwarding, some 9 ns of a
// 50 ns SHA-NI child. The engine's expansion writes each child into the
// stack slot workstack.Stack.PushSlot returns, and AppendChildren into
// the slice it grows; dst must not alias the ChildGen.
func (g *ChildGen) ChildInto(dst *Node, i int) {
	dst.Height, dst.Job = g.height, g.job
	switch g.hash {
	case HashSHA1:
		binary.BigEndian.PutUint32(g.buf[StateSize:], uint32(i))
		hashBlock(&dst.State, &g.buf, g.gran)
	case HashFast:
		seed := binary.BigEndian.Uint64(g.buf[:8])
		v := rng.Mix64(seed ^ rng.Mix64(uint64(i)+0x9e3779b97f4a7c15))
		for r := 1; r < g.gran; r++ {
			v = rng.Mix64(v)
		}
		writeFastState(&dst.State, v)
	}
}

// hashBlock sets *dst to the end of a chain of rounds SHA-1
// evaluations that starts from the 24-byte child input *buf; every
// later link hashes the 20-byte state the one before it left. It is the
// only place child generation hashes, and its two bodies — the
// one-block SHA-NI kernel and crypto/sha1 — produce the same bytes.
func hashBlock(dst *State, buf *[StateSize + 4]byte, rounds int) {
	if useSHANI {
		blockChildSHANI(dst, buf)
		for r := 1; r < rounds; r++ {
			blockChainSHANI(dst, dst)
		}
		return
	}
	*dst = sha1.Sum(buf[:])
	for r := 1; r < rounds; r++ {
		*dst = sha1.Sum(dst[:])
	}
}

// AppendChildren appends all children of parent to dst and returns the
// extended slice.
func (p Params) AppendChildren(dst []Node, parent *Node) []Node {
	var g ChildGen
	n := g.Reset(&p, parent)
	for i := 0; i < n; i++ {
		dst = append(dst, Node{})
		g.ChildInto(&dst[len(dst)-1], i)
	}
	return dst
}

// CountResult summarizes a complete traversal.
type CountResult struct {
	Nodes    uint64
	Leaves   uint64
	MaxDepth int32
}

// CountSequential walks the whole tree depth-first with an explicit
// stack and returns its exact statistics. This is the ground truth the
// distributed traversals are verified against, and the baseline for
// speedup computations.
func CountSequential(p Params) (CountResult, error) {
	res, _, err := CountLimited(p, math.MaxUint64)
	return res, err
}

// CountLimited is CountSequential's walk, aborted with ok=false once
// more than limit nodes have been visited. It protects tests and tools
// against accidentally enormous trees.
func CountLimited(p Params, limit uint64) (res CountResult, ok bool, err error) {
	if err := p.Validate(); err != nil {
		return CountResult{}, false, err
	}
	stack := make([]Node, 0, 4096)
	stack = append(stack, p.Root())
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.Nodes++
		if res.Nodes > limit {
			return res, false, nil
		}
		if n.Height > res.MaxDepth {
			res.MaxDepth = n.Height
		}
		before := len(stack)
		stack = p.AppendChildren(stack, &n)
		if len(stack) == before {
			res.Leaves++
		}
	}
	return res, true, nil
}
