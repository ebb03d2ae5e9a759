package topology

import (
	"testing"

	"distws/internal/sim"
)

// bruteMinCross is the reference implementation: the minimum zero-byte
// latency over every cross-shard rank pair, clamped to the network's
// 1ns floor.
func bruteMinCross(j *Job, shardOf []int, m LatencyModel) (sim.Duration, bool) {
	min, ok := sim.Duration(0), false
	for i := 0; i < j.Ranks(); i++ {
		for k := 0; k < j.Ranks(); k++ {
			if i == k || shardOf[i] == shardOf[k] {
				continue
			}
			d := m.Latency(j, i, k, 0)
			if !ok || d < min {
				min, ok = d, true
			}
		}
	}
	if ok && min < 1 {
		min = 1
	}
	return min, ok
}

// contiguous assigns ranks to shards in equal-as-possible consecutive
// blocks, the partition the engine uses.
func contiguous(n, shards int) []int {
	out := make([]int, n)
	for r := 0; r < n; r++ {
		out[r] = r * shards / n
	}
	return out
}

// stripes assigns rank r to shard r%shards — a worst case for the
// hierarchy fast path, since every node or blade tends to span shards.
func stripes(n, shards int) []int {
	out := make([]int, n)
	for r := 0; r < n; r++ {
		out[r] = r % shards
	}
	return out
}

// TestMinCrossLatencyExact checks the tiered hierarchical fast path
// against the brute-force pairwise minimum across placements, shard
// counts and partition shapes, including cube-aligned boundaries that
// force the hop-scan fallback.
func TestMinCrossLatencyExact(t *testing.T) {
	model := DefaultLatency()
	cases := []struct {
		name      string
		ranks     int
		placement Placement
		part      func(n, shards int) []int
		shards    int
	}{
		{"1N-contig-2", 64, OnePerNode, contiguous, 2},
		{"1N-contig-7", 97, OnePerNode, contiguous, 7},
		{"8RR-contig-4", 128, EightRoundRobin, contiguous, 4},
		{"8G-contig-4", 128, EightGrouped, contiguous, 4},
		{"8G-contig-3", 96, EightGrouped, contiguous, 3},
		{"1N-stripes-4", 64, OnePerNode, stripes, 4},
		{"8G-stripes-8", 128, EightGrouped, stripes, 8},
		// 24 nodes = exactly two cubes; splitting at rank 12 aligns the
		// shard boundary with the cube boundary, so no cross pair shares
		// a cube and the beyond-cube hop scan decides the bound.
		{"1N-cube-aligned", 24, OnePerNode, contiguous, 2},
		{"1N-cube-aligned-4", 48, OnePerNode, contiguous, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			job, err := NewJob(KComputer(), tc.ranks, tc.placement)
			if err != nil {
				t.Fatal(err)
			}
			shardOf := tc.part(tc.ranks, tc.shards)
			got, err := MinCrossLatency(job, shardOf, model)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := bruteMinCross(job, shardOf, model)
			if !wantOK || got != want {
				t.Fatalf("MinCrossLatency = %v, brute force = (%v, %v)", got, want, wantOK)
			}
		})
	}
}

// TestMinCrossLatencyUnordered uses a pathological model whose level
// constants are NOT monotone in hierarchy distance (a blade transfer
// cheaper than a shared-memory copy), which the fast path must still
// get exactly right: it may not assume SameNode ≤ SameBlade ≤ SameCube.
func TestMinCrossLatencyUnordered(t *testing.T) {
	model := &HierarchicalLatency{
		Software:  sim.Microsecond,
		SameNode:  900 * sim.Nanosecond,
		SameBlade: 100 * sim.Nanosecond,
		SameCube:  500 * sim.Nanosecond,
		PerHop:    10 * sim.Nanosecond,
	}
	for _, placement := range []Placement{OnePerNode, EightRoundRobin, EightGrouped} {
		job, err := NewJob(KComputer(), 64, placement)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3, 8} {
			for _, part := range []func(int, int) []int{contiguous, stripes} {
				shardOf := part(64, shards)
				got, err := MinCrossLatency(job, shardOf, model)
				if err != nil {
					t.Fatal(err)
				}
				want, wantOK := bruteMinCross(job, shardOf, model)
				if !wantOK || got != want {
					t.Fatalf("%v shards=%d: MinCrossLatency = %v, brute force = (%v, %v)",
						placement, shards, got, want, wantOK)
				}
			}
		}
	}
}

// TestMinCrossLatencyUniform covers the flat model, including the 1ns
// clamp when the fixed latency is zero.
func TestMinCrossLatencyUniform(t *testing.T) {
	job, err := NewJob(KComputer(), 16, OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	shardOf := contiguous(16, 2)
	got, err := MinCrossLatency(job, shardOf, &UniformLatency{Fixed: 3 * sim.Microsecond})
	if err != nil || got != 3*sim.Microsecond {
		t.Fatalf("uniform: got (%v, %v)", got, err)
	}
	got, err = MinCrossLatency(job, shardOf, &UniformLatency{Fixed: 0})
	if err != nil || got != 1 {
		t.Fatalf("uniform zero: got (%v, %v), want 1ns clamp", got, err)
	}
}

// TestMinCrossLatencyGenericModel exercises the brute-force fallback
// for a custom pure model and checks it agrees with the reference scan.
func TestMinCrossLatencyGenericModel(t *testing.T) {
	job, err := NewJob(KComputer(), 32, EightGrouped)
	if err != nil {
		t.Fatal(err)
	}
	model := rankGapLatency{}
	shardOf := stripes(32, 4)
	got, err := MinCrossLatency(job, shardOf, model)
	if err != nil {
		t.Fatal(err)
	}
	want, wantOK := bruteMinCross(job, shardOf, model)
	if !wantOK || got != want {
		t.Fatalf("generic: got %v, want (%v, %v)", got, want, wantOK)
	}
}

// rankGapLatency is an artificial pure model: latency grows with rank
// distance, so the minimum sits on adjacent ranks in distinct shards.
type rankGapLatency struct{}

func (rankGapLatency) Latency(_ *Job, i, k int, _ int) sim.Duration {
	d := i - k
	if d < 0 {
		d = -d
	}
	return sim.Duration(d) * 100 * sim.Nanosecond
}

// TestMinCrossLatencyEdges pins the degenerate inputs: a single-shard
// map, a bad shard map and a jitter model error out.
func TestMinCrossLatencyEdges(t *testing.T) {
	job, err := NewJob(KComputer(), 8, OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MinCrossLatency(job, make([]int, 8), DefaultLatency()); err == nil {
		t.Fatal("single shard: want error")
	}
	if _, err := MinCrossLatency(job, []int{0, 1}, DefaultLatency()); err == nil {
		t.Fatal("short shard map: want error")
	}
	jit := NewJitterLatency(DefaultLatency(), 0.2, 1)
	if _, err := MinCrossLatency(job, contiguous(8, 2), jit); err == nil {
		t.Fatal("jitter model: want error")
	}
}
