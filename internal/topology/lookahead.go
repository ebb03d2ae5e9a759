package topology

import (
	"fmt"

	"distws/internal/sim"
)

// MinCrossLatency returns the minimum zero-byte message latency between
// any pair of ranks assigned to different shards by shardOf (a rank →
// shard map with one entry per rank of the job). This is the
// conservative lookahead bound for the sharded simulation kernel
// (internal/sim/par): no cross-shard message can be delivered earlier
// than its send time plus this value, because the bandwidth term only
// ever adds latency and the network clamps every delay to at least 1ns
// — which is also the floor applied to the returned value.
//
// The model must be pure (a deterministic function of the rank pair):
// *HierarchicalLatency and *UniformLatency are served by exact fast
// paths, any other model by brute force over all cross-shard pairs,
// which calls m.Latency once per pair. Stateful models such as
// *JitterLatency are rejected — probing them would both advance their
// stream and invalidate the bound (a jitter draw can undercut the base
// latency). A shard map with no cross-shard pair (fewer than two
// distinct shards) has no bound and is an error too.
func MinCrossLatency(j *Job, shardOf []int, m LatencyModel) (sim.Duration, error) {
	n := j.Ranks()
	if len(shardOf) != n {
		return 0, fmt.Errorf("topology: shard map has %d entries for %d ranks", len(shardOf), n)
	}
	cross := false
	for i := 1; i < n; i++ {
		if shardOf[i] != shardOf[0] {
			cross = true
			break
		}
	}
	if !cross {
		return 0, fmt.Errorf("topology: shard map has no cross-shard rank pair")
	}
	switch mm := m.(type) {
	case *HierarchicalLatency:
		d, err := minCrossHierarchical(j, shardOf, mm)
		return clampMin(d), err
	case *UniformLatency:
		return clampMin(mm.Fixed), nil
	case *JitterLatency:
		return 0, fmt.Errorf("topology: jitter latency is stateful; no sound lookahead bound")
	default:
		min := sim.Duration(0)
		first := true
		for i := 0; i < n; i++ {
			for k := i + 1; k < n; k++ {
				if shardOf[i] == shardOf[k] {
					continue
				}
				d := m.Latency(j, i, k, 0)
				if first || d < min {
					min, first = d, false
				}
			}
		}
		return clampMin(min), nil
	}
}

func clampMin(d sim.Duration) sim.Duration {
	if d < 1 {
		return 1
	}
	return d
}

// nodeEntry is one distinct (node coordinate, shard) combination of the
// job; the hierarchical fast path works on these rather than on rank
// pairs, since the distance term of the latency only depends on the two
// node coordinates.
type nodeEntry struct {
	c Coord
	s int
}

type bladeKey struct{ x, y, z, b int }
type cubeKey struct{ x, y, z int }

// minCrossHierarchical computes the exact minimum cross-shard latency
// under the hierarchical model without enumerating all rank pairs. The
// model's distance term takes one of four shapes — SameNode, SameBlade,
// SameCube, or SameCube + hops·PerHop — so it suffices to know which
// shapes occur across shard boundaries (cheap grouping by node, blade
// and cube) and, only when no two cross-shard nodes share a cube, the
// minimum hop count between cross-shard nodes (a pair scan over
// distinct node coordinates, not ranks). Durations are assumed
// non-negative, which makes the beyond-cube shape dominate SameCube;
// no ordering among SameNode/SameBlade/SameCube is assumed.
func minCrossHierarchical(j *Job, shardOf []int, h *HierarchicalLatency) (sim.Duration, error) {
	if h.SameNode < 0 || h.SameBlade < 0 || h.SameCube < 0 || h.PerHop < 0 {
		return 0, fmt.Errorf("topology: negative latency components %+v", *h)
	}
	n := j.Ranks()
	// Distinct (coord, shard) entries in first-rank order, plus the
	// node-spans-shards check.
	seen := make(map[nodeEntry]bool, n)
	nodeShard := make(map[Coord]int, n)
	var entries []nodeEntry
	sameNode := false
	for r := 0; r < n; r++ {
		e := nodeEntry{c: j.Coord(r), s: shardOf[r]}
		if s0, ok := nodeShard[e.c]; !ok {
			nodeShard[e.c] = e.s
		} else if s0 != e.s {
			sameNode = true
		}
		if !seen[e] {
			seen[e] = true
			entries = append(entries, e)
		}
	}

	best := sim.Duration(-1)
	better := func(d sim.Duration) {
		if best < 0 || d < best {
			best = d
		}
	}
	if sameNode {
		better(h.SameNode)
	}
	// Blade and cube groups: a pairwise check within each group is tiny
	// (a blade holds NodesPerBlade nodes, a cube NodesPerCube).
	if groupSpansShards(entries, func(e nodeEntry) bladeKey {
		return bladeKey{e.c.X, e.c.Y, e.c.Z, e.c.B}
	}, func(p, q Coord) bool { return p != q }) {
		better(h.SameBlade)
	}
	if best < 0 || h.SameCube < best {
		if groupSpansShards(entries, func(e nodeEntry) cubeKey {
			return cubeKey{e.c.X, e.c.Y, e.c.Z}
		}, func(p, q Coord) bool { return !SameBlade(p, q) }) {
			better(h.SameCube)
		}
	}
	if best < 0 || h.SameCube < best {
		// The beyond-cube shape is SameCube + hops·PerHop ≥ SameCube
		// (hops ≥ 1, components non-negative), so it only matters while
		// SameCube itself could still improve the minimum. Scan distinct
		// cross-shard node pairs in different cubes for the minimum hop
		// count — quadratic in nodes, but reached only when the shard
		// boundary aligns exactly with cube boundaries.
		machine := j.Alloc.Machine
		minHops := -1
		for i := 0; i < len(entries); i++ {
			for k := i + 1; k < len(entries); k++ {
				p, q := entries[i], entries[k]
				if p.s == q.s || SameCube(p.c, q.c) {
					continue
				}
				if hh := machine.Hops(p.c, q.c); minHops < 0 || hh < minHops {
					minHops = hh
				}
			}
		}
		if minHops >= 0 {
			better(h.SameCube + sim.Duration(minHops)*h.PerHop)
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("topology: no cross-shard pair found")
	}
	return h.Software + best, nil
}

// groupSpansShards reports whether any group (as keyed by key) contains
// two entries in different shards whose coordinates satisfy pairOK.
func groupSpansShards[K comparable](entries []nodeEntry, key func(nodeEntry) K, pairOK func(p, q Coord) bool) bool {
	groups := make(map[K][]int, len(entries))
	for i, e := range entries {
		k := key(e)
		for _, gi := range groups[k] {
			g := entries[gi]
			if g.s != e.s && pairOK(g.c, e.c) {
				return true
			}
		}
		groups[k] = append(groups[k], i)
	}
	return false
}
