package topology

import (
	"fmt"
	"sync"

	"distws/internal/rng"
	"distws/internal/sim"
)

// LatencyModel computes the virtual one-way message latency between two
// ranks of a job for a payload of the given size.
type LatencyModel interface {
	// Latency returns the delay between rank i sending a message of
	// size bytes and rank k being able to observe it.
	Latency(j *Job, i, k int, bytes int) sim.Duration
}

// HierarchicalLatency models the Tofu network levels the paper
// describes: shared-memory transfer inside a node, the dedicated blade
// transport, intra-cube links, and per-hop torus link cost beyond,
// plus a bandwidth term. Absolute values are synthetic (we are not on
// the K Computer); what the reproduction depends on is their ordering
// and spread, which follows the paper's description that "latencies
// between nodes in the same blade are lower than inside the cube or
// across racks".
type HierarchicalLatency struct {
	// Software is the fixed send+receive overhead applied to every
	// message, regardless of distance (MPI stack traversal).
	Software sim.Duration
	// SameNode is the extra cost of a transfer between two ranks on the
	// same compute node (shared memory copy).
	SameNode sim.Duration
	// SameBlade is the extra cost over the dedicated blade transport.
	SameBlade sim.Duration
	// SameCube is the extra cost between blades of one cube.
	SameCube sim.Duration
	// PerHop is the added cost per torus link crossed for nodes in
	// different cubes.
	PerHop sim.Duration
	// BytesPerSecond is the link bandwidth used for the payload term.
	// Zero disables the bandwidth term.
	BytesPerSecond float64
}

// DefaultLatency returns the calibration used throughout the
// experiments. The constants are loosely modeled on measured Tofu MPI
// latencies (a few microseconds short-range; tens of microseconds at
// 10+ hops once software overhead and contention are included) and on
// the paper's observation that allocations of 8192 nodes span more than
// 80 racks with >10-hop routes.
func DefaultLatency() *HierarchicalLatency {
	return &HierarchicalLatency{
		Software:       2 * sim.Microsecond,
		SameNode:       400 * sim.Nanosecond,
		SameBlade:      1200 * sim.Nanosecond,
		SameCube:       2 * sim.Microsecond,
		PerHop:         800 * sim.Nanosecond,
		BytesPerSecond: 5e9, // 5 GB/s Tofu link
	}
}

// Latency implements LatencyModel.
func (h *HierarchicalLatency) Latency(j *Job, i, k int, bytes int) sim.Duration {
	d := h.Software
	p, q := j.Coord(i), j.Coord(k)
	switch {
	case p == q:
		d += h.SameNode
	case SameBlade(p, q):
		d += h.SameBlade
	case SameCube(p, q):
		d += h.SameCube
	default:
		d += h.SameCube + sim.Duration(j.Alloc.Machine.Hops(p, q))*h.PerHop
	}
	if h.BytesPerSecond > 0 && bytes > 0 {
		d += sim.Duration(float64(bytes) / h.BytesPerSecond * 1e9)
	}
	return d
}

// JitterLatency wraps another model and perturbs every latency by a
// multiplicative pseudo-random factor in [1-Frac, 1+Frac]. Real
// networks see contention and OS noise; this model checks that the
// reproduction's conclusions do not depend on perfectly clean
// latencies (ablation A9). The jitter stream is seeded, and the
// simulator's call order is deterministic, so runs remain reproducible.
type JitterLatency struct {
	Base LatencyModel
	// Frac is the maximum relative deviation (0.2 = ±20%).
	Frac float64
	rand *rng.Xoshiro256
}

// NewJitterLatency wraps base with ±frac deterministic jitter.
func NewJitterLatency(base LatencyModel, frac float64, seed uint64) *JitterLatency {
	if frac < 0 || frac >= 1 {
		panic(fmt.Sprintf("topology: jitter fraction %v outside [0, 1)", frac))
	}
	return &JitterLatency{Base: base, Frac: frac, rand: rng.New(seed)}
}

// Latency implements LatencyModel.
func (j *JitterLatency) Latency(job *Job, i, k int, bytes int) sim.Duration {
	d := j.Base.Latency(job, i, k, bytes)
	f := 1 + j.Frac*(2*j.rand.Float64()-1)
	out := sim.Duration(float64(d) * f)
	if out < 1 {
		out = 1
	}
	return out
}

// UniformLatency is a flat model: every message takes the same time
// regardless of placement. It represents the "all processes are
// equidistant" assumption the paper calls out as unrealistic, and is
// used as an ablation baseline (under it, uniform random selection and
// distance-skewed selection must perform identically).
type UniformLatency struct {
	Fixed          sim.Duration
	BytesPerSecond float64
}

// Latency implements LatencyModel.
func (u *UniformLatency) Latency(_ *Job, _, _ int, bytes int) sim.Duration {
	d := u.Fixed
	if u.BytesPerSecond > 0 && bytes > 0 {
		d += sim.Duration(float64(bytes) / u.BytesPerSecond * 1e9)
	}
	return d
}

// byteTableMax bounds the memo for the bandwidth term: protocol
// messages (requests, replies, tokens) and typical loot batches are
// well under this; larger transfers fall back to direct computation.
const byteTableMax = 4096

// A packedCoord is a node's 6-D coordinate in one word, laid out so
// that the hierarchy tests of the latency model are shifts of an XOR:
// two nodes share a cube iff their words agree above cubeShift, and a
// blade iff they agree above bladeShift.
//
//	bits  0..3  C    bits 12..27  Z
//	bits  4..7  A    bits 28..43  Y
//	bits  8..11 B    bits 44..59  X
type packedCoord uint64

const (
	bladeShift = 8  // B and the cube position
	cubeShift  = 12 // the cube position X, Y, Z
	intraMax   = 1<<4 - 1
	cubeMax    = 1<<16 - 1
)

// pack packs p. Every component must fit its field, which
// Machine.Validate guarantees for a node of the machine.
func pack(p Coord) packedCoord {
	return packedCoord(p.C) | packedCoord(p.A)<<4 | packedCoord(p.B)<<8 |
		packedCoord(p.Z)<<12 | packedCoord(p.Y)<<28 | packedCoord(p.X)<<44
}

// unpack is pack's inverse.
func (p packedCoord) unpack() Coord { return Coord{p.x(), p.y(), p.z(), p.a(), p.b(), p.c()} }

func (p packedCoord) c() int { return int(p & intraMax) }
func (p packedCoord) a() int { return int(p >> 4 & intraMax) }
func (p packedCoord) b() int { return int(p >> 8 & intraMax) }
func (p packedCoord) z() int { return int(p >> 12 & cubeMax) }
func (p packedCoord) y() int { return int(p >> 28 & cubeMax) }
func (p packedCoord) x() int { return int(p >> 44 & cubeMax) }

// distSq is distSq on packed words.
func (p packedCoord) distSq(q packedCoord) int {
	dx, dy, dz := p.x()-q.x(), p.y()-q.y(), p.z()-q.z()
	da, db, dc := p.a()-q.a(), p.b()-q.b(), p.c()-q.c()
	return dx*dx + dy*dy + dz*dz + da*da + db*db + dc*dc
}

// cachedLatency wraps a HierarchicalLatency for the network's per-send
// lookups. The distance term is computed from the job's packed word
// per rank instead of two 48-byte Coords — the same integer arithmetic
// as Machine.Hops, SameBlade and SameCube, so the same value — and the
// bandwidth term, a pure function of the byte count, is served from a
// small table indexed by size. The wrapper changes per-send cost, never
// a single latency.
type cachedLatency struct {
	h       *HierarchicalLatency
	job     *Job
	machine Machine
	coord   []packedCoord // the job's, per rank
	// bytesTab[b] is the bandwidth term of a b-byte payload (byteTables);
	// nil without a bandwidth term.
	bytesTab []sim.Duration
}

// byteTables shares up to eight bandwidth tables by bandwidth, each
// filled whole before it is published and read-only after.
var byteTables struct {
	mu sync.Mutex
	m  map[float64][]sim.Duration
}

func bytesTable(bps float64) []sim.Duration {
	byteTables.mu.Lock()
	defer byteTables.mu.Unlock()
	tab := byteTables.m[bps]
	if tab == nil {
		if len(byteTables.m) == 8 || byteTables.m == nil {
			byteTables.m = map[float64][]sim.Duration{}
		}
		tab = make([]sim.Duration, byteTableMax)
		for b := range tab {
			tab[b] = sim.Duration(float64(b) / bps * 1e9)
		}
		byteTables.m[bps] = tab
	}
	return tab
}

// SendModel returns the latency model the network should use for its
// per-send lookups: the packed-coordinate wrapper when the model is the
// hierarchical Tofu model, the model itself otherwise. Only pure
// models qualify — JitterLatency advances an RNG on every call, so
// wrapping it would change the jitter stream — and UniformLatency has
// no distance term to speed up.
func SendModel(m LatencyModel, j *Job) LatencyModel {
	h, ok := m.(*HierarchicalLatency)
	if !ok {
		return m
	}
	c := &cachedLatency{h: h, job: j, machine: j.Alloc.Machine, coord: j.packed}
	if h.BytesPerSecond > 0 {
		c.bytesTab = bytesTable(h.BytesPerSecond)
	}
	return c
}

// distTerm computes the distance-dependent part of the wrapped model's
// Latency — the same arithmetic with the bandwidth term left out.
func (c *cachedLatency) distTerm(i, k int) sim.Duration {
	h := c.h
	p, q := c.coord[i], c.coord[k]
	diff := p ^ q
	switch {
	case diff == 0:
		return h.Software + h.SameNode
	case diff>>bladeShift == 0:
		return h.Software + h.SameBlade
	case diff>>cubeShift == 0:
		return h.Software + h.SameCube
	}
	m := c.machine
	hops := torusDist(p.x(), q.x(), m.CubesX) +
		torusDist(p.y(), q.y(), m.CubesY) +
		torusDist(p.z(), q.z(), m.CubesZ) +
		abs(p.a()-q.a()) +
		torusDist(p.b(), q.b(), SizeB) +
		abs(p.c()-q.c())
	if hops == 0 {
		hops = 1 // as Machine.Hops: distinct nodes are at least one hop apart
	}
	return h.Software + h.SameCube + sim.Duration(hops)*h.PerHop
}

// Latency implements LatencyModel.
func (c *cachedLatency) Latency(j *Job, i, k int, bytes int) sim.Duration {
	if j != c.job {
		// The cache is keyed to one placed job; serve foreign jobs from
		// the wrapped model rather than from another job's distances.
		return c.h.Latency(j, i, k, bytes)
	}
	d := c.distTerm(i, k)
	if uint(bytes) < uint(len(c.bytesTab)) {
		d += c.bytesTab[bytes]
	} else if c.h.BytesPerSecond > 0 && bytes > 0 {
		d += sim.Duration(float64(bytes) / c.h.BytesPerSecond * 1e9)
	}
	return d
}
