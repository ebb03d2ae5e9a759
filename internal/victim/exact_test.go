package victim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"distws/internal/rng"
	"distws/internal/sample"
	"distws/internal/topology"
)

// refSkewed is the distance-skewed selector as it was first written,
// kept as the reference the table-driven one must match draw for draw:
// every weight comes from the Euclidean distance of the two ranks'
// unpacked coordinates (topology.Euclid, which no packed word or
// topology.Origin reaches) and math.Pow, an alias table is
// float probabilities sampled with Float64, and rejection sampling
// compares Float64 with the weight.
type refSkewed struct {
	job   *topology.Job
	n     int
	k     float64
	rand  []*rng.Xoshiro256
	prob  [][]float64
	alias [][]int32
}

func newRefSkewed(job *topology.Job, seed uint64, k float64) *refSkewed {
	n := job.Ranks()
	s := &refSkewed{job: job, n: n, k: k, rand: make([]*rng.Xoshiro256, n),
		prob: make([][]float64, n), alias: make([][]int32, n)}
	for i := range s.rand {
		s.rand[i] = rng.New(rng.Mix64(seed) ^ rng.Mix64(uint64(i)+0x51ed270693c5e191))
	}
	return s
}

func (s *refSkewed) weight(thief, j int) float64 {
	e := topology.Euclid(s.job.Coord(thief), s.job.Coord(j))
	if e == 0 {
		return 1
	}
	return 1 / math.Pow(e, s.k)
}

// build is Vose's construction over float probabilities.
func (s *refSkewed) build(thief int) {
	n := s.n
	scaled := make([]float64, n)
	var total float64
	for j := range scaled {
		if j != thief {
			scaled[j] = s.weight(thief, j)
		}
		total += scaled[j]
	}
	for j := range scaled {
		scaled[j] = scaled[j] / total * float64(n)
	}
	prob, alias := make([]float64, n), make([]int32, n)
	var small, large []int32
	for i := n - 1; i >= 0; i-- {
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		sm, l := small[len(small)-1], large[len(large)-1]
		small, large = small[:len(small)-1], large[:len(large)-1]
		prob[sm], alias[sm] = scaled[sm], l
		scaled[l] = (scaled[l] + scaled[sm]) - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range append(large, small...) {
		prob[i], alias[i] = 1, i
	}
	s.prob[thief], s.alias[thief] = prob, alias
}

func (s *refSkewed) next(thief int) int {
	r := s.rand[thief]
	if s.n <= 2048 {
		if s.prob[thief] == nil {
			s.build(thief)
		}
		i := r.Intn(s.n)
		if r.Float64() < s.prob[thief][i] {
			return i
		}
		return int(s.alias[thief][i])
	}
	for {
		v := r.Intn(s.n - 1)
		if v >= thief {
			v++
		}
		if r.Float64() < s.weight(thief, v) {
			return v
		}
	}
}

// TestDistanceSkewedMatchesReference compares the selector with the
// reference on the first draws of several thieves, across the three
// placements, both sampling regimes (64 and 1024 ranks build alias
// tables, 4096 and 8192 — the repository benchmark's steal-8k rung —
// reject) and four exponents. Equal victims and equal
// generator states at the end — in alias mode once the reference has
// drawn the bucket the selector holds pre-drawn — mean the integer
// distances, the weight and threshold tables, the packed alias cells
// and the early bucket draw changed no draw.
func TestDistanceSkewedMatchesReference(t *testing.T) {
	draws := 100000
	if testing.Short() {
		draws = 5000
	}
	for _, p := range []topology.Placement{topology.OnePerNode, topology.EightRoundRobin, topology.EightGrouped} {
		for _, ranks := range []int{64, 1024, 4096, 8192} {
			job := testJob(t, ranks, p)
			for _, k := range []float64{0, 0.5, 1, 2} {
				seed := uint64(ranks) + uint64(k*8)
				sel := NewDistanceSkewedExp(job, seed, k).(*distanceSkewed)
				ref := newRefSkewed(job, seed, k)
				if sel.useAlias != (ranks <= 2048) {
					t.Fatalf("%d ranks: useAlias = %v", ranks, sel.useAlias)
				}
				for _, thief := range []int{0, ranks / 3, ranks - 1} {
					for i := 0; i < draws; i++ {
						if got, want := sel.Next(thief), ref.next(thief); got != want {
							t.Fatalf("%v, %d ranks, k=%g, thief %d, draw %d: victim %d, reference %d",
								p, ranks, k, thief, i, got, want)
						}
					}
					if sel.useAlias {
						// The selector is one Intn ahead of the reference:
						// the bucket of the thief's next draw.
						if got, want := int(sel.bucket[thief])-1, ref.rand[thief].Intn(ranks); got != want {
							t.Fatalf("%v, %d ranks, k=%g, thief %d: pre-drawn bucket %d, the reference's next Intn is %d",
								p, ranks, k, thief, got, want)
						}
					}
					if sel.rand[thief] != *ref.rand[thief] {
						t.Fatalf("%v, %d ranks, k=%g, thief %d: generator state differs from the reference after %d equal draws",
							p, ranks, k, thief, draws)
					}
				}
				for j, w := range sel.Weights(1) {
					if want := ref.weight(1, j); j != 1 && w != want {
						t.Fatalf("%v, %d ranks, k=%g: weight(1, %d) = %v, reference %v", p, ranks, k, j, w, want)
					}
				}
			}
		}
	}
}

// TestPredrawKeepsEveryThiefsStream: drawing a thief's next bucket at
// the end of its previous draw leaves every thief's stream as the
// reference consumes it, whatever the interleaving. 1024 thieves draw
// in random order, one draw or two back to back (as skipBlacklisted
// re-rolls), a million draws in all, each equal to the reference's —
// once on tables built cold, once on the same tables from the cache.
func TestPredrawKeepsEveryThiefsStream(t *testing.T) {
	const ranks = 1024
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	resetTableCache()
	var cold []sample.Discrete
	for _, pass := range []string{"cold", "cached"} {
		job := testJob(t, ranks, topology.OnePerNode)
		sel := NewDistanceSkewed(job, 77).(*distanceSkewed)
		ref := newRefSkewed(job, 77, 1)
		order := rng.New(3)
		for i := 0; i < draws; {
			thief := order.Intn(ranks)
			for n := 1 + order.Intn(2); n > 0; n-- {
				if got, want := sel.Next(thief), ref.next(thief); got != want {
					t.Fatalf("%s: draw %d, thief %d: victim %d, reference %d", pass, i, thief, got, want)
				}
				i++
			}
		}
		if cold == nil {
			cold = sel.tables
		} else if &sel.tables[0] != &cold[0] {
			t.Fatal("the second selector on the geometry built its own tables")
		}
	}
}

// resetTableCache empties the alias-table cache, so that the next
// distance-skewed selector's first draw builds its tables.
func resetTableCache() {
	tableSets.mu.Lock()
	defer tableSets.mu.Unlock()
	tableSets.sets, tableSets.bytes = nil, 0
}

// TestTablesSharedAcrossRuns: a selector whose tables come from the
// cache draws what one that built them draws and leaves the same
// generator and bucket state, in every placement, at 64 and 1024
// ranks and for three exponents; a job on another allocation with the
// same rank count and placement misses; and eviction keeps the cache
// within its budget, least recently used first. The first set built is
// fetched again at every step, so it outlives sets built after it.
func TestTablesSharedAcrossRuns(t *testing.T) {
	resetTableCache()
	type key struct {
		job *topology.Job
		k   float64
	}
	var lru []key // the cache as it should be, least recently used first
	use := func(job *topology.Job, k float64, sel *distanceSkewed) {
		t.Helper()
		sel.Next(0)
		c := key{job, k}
		if i := slices.IndexFunc(lru, func(c key) bool { return c.k == k && c.job.SameGeometry(job) }); i >= 0 {
			c = lru[i]
			lru = slices.Delete(lru, i, i+1)
		}
		lru = append(lru, c)
		size := func(c key) int { n := c.job.Ranks(); return 8 * n * (n + 3) }
		bytes := 0
		for _, c := range lru {
			bytes += size(c)
		}
		for ; bytes > tableBudget; lru = lru[1:] {
			bytes -= size(lru[0])
		}
		if tableSets.bytes != bytes || tableSets.bytes > tableBudget || len(tableSets.sets) != len(lru) {
			t.Fatalf("cache holds %d sets in %d bytes, want %d in %d (budget %d)",
				len(tableSets.sets), tableSets.bytes, len(lru), bytes, tableBudget)
		}
		for i, s := range tableSets.sets {
			if s.job != lru[i].job || s.k != lru[i].k {
				t.Fatalf("cache slot %d holds the set of %d ranks %v at k=%g, want %d ranks %v at k=%g", i,
					s.job.Ranks(), s.job.Placement, s.k, lru[i].job.Ranks(), lru[i].job.Placement, lru[i].k)
			}
		}
	}
	var first *distanceSkewed
	for _, ranks := range []int{64, 1024} {
		for _, p := range []topology.Placement{topology.OnePerNode, topology.EightRoundRobin, topology.EightGrouped} {
			for _, k := range []float64{0, 1, 2} {
				name := fmt.Sprintf("%v, %d ranks, k=%g", p, ranks, k)
				job := testJob(t, ranks, p)
				seed := uint64(ranks) + uint64(k)
				cold := NewDistanceSkewedExp(job, seed, k).(*distanceSkewed)
				use(job, k, cold)
				if first == nil {
					first = cold
				}
				use(first.job, first.exponent, NewDistanceSkewedExp(first.job, 1, first.exponent).(*distanceSkewed))
				hit := NewDistanceSkewedExp(testJob(t, ranks, p), seed, k).(*distanceSkewed)
				use(job, k, hit)
				if &hit.tables[0] != &cold.tables[0] {
					t.Fatalf("%s: a selector on the same geometry built its own tables", name)
				}
				for _, thief := range []int{0, ranks / 3, ranks - 1} {
					for i := 0; i < 200; i++ {
						if a, b := cold.Next(thief), hit.Next(thief); a != b {
							t.Fatalf("%s, thief %d, draw %d: cold selector drew %d, cached one %d", name, thief, i, a, b)
						}
					}
				}
				if !slices.Equal(cold.rand, hit.rand) || !slices.Equal(cold.bucket, hit.bucket) {
					t.Fatalf("%s: generator or bucket state differs after equal draws", name)
				}

				// The same job cut from a larger allocation: beyond one
				// cube's worth of nodes its ranks sit elsewhere on the
				// machine (up to it, every allocation starts with the same
				// nodes).
				nodes := ranks / p.RanksPerNode()
				alloc, err := topology.Allocate(topology.KComputer(), 2*nodes)
				if err != nil {
					t.Fatal(err)
				}
				other, err := topology.PlaceJob(alloc, ranks, p)
				if err != nil {
					t.Fatal(err)
				}
				if same := other.SameGeometry(job); same == (nodes > topology.NodesPerCube) {
					t.Fatalf("%s: test setup: the larger allocation places the ranks identically: %v", name, same)
				}
				moved := NewDistanceSkewedExp(other, seed, k).(*distanceSkewed)
				use(other, k, moved)
				if shared := &moved.tables[0] == &cold.tables[0]; shared != other.SameGeometry(job) {
					t.Fatalf("%s: a job on another allocation shares the tables: %v", name, shared)
				}
			}
		}
	}
}

// TestDistanceSkewedExponentDomain: a negative or NaN exponent is
// refused at construction, as an error where the exponent arrives from
// outside (DistanceSkewedExp, Lookup) and as a panic from the
// constructor itself.
func TestDistanceSkewedExponentDomain(t *testing.T) {
	job := testJob(t, 16, topology.OnePerNode)
	for _, k := range []float64{-1, -1e-9, math.Inf(-1), math.NaN()} {
		if f, err := DistanceSkewedExp(k); err == nil || f != nil {
			t.Errorf("DistanceSkewedExp(%v) = %v, %v; want an error", k, f != nil, err)
		}
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("NewDistanceSkewedExp(k = %v) did not panic", k)
				} else if !strings.Contains(fmt.Sprint(r), "exponent") {
					t.Errorf("NewDistanceSkewedExp(k = %v) panicked with %v", k, r)
				}
			}()
			NewDistanceSkewedExp(job, 1, k)
		}()
	}
	for _, k := range []float64{0, 0.5, 1, 4} {
		f, err := DistanceSkewedExp(k)
		if err != nil {
			t.Fatalf("DistanceSkewedExp(%v): %v", k, err)
		}
		if v := f(job, 3).Next(5); v == 5 || v < 0 || v >= 16 {
			t.Fatalf("k = %v: Next(5) = %d", k, v)
		}
	}
}

func TestLookup(t *testing.T) {
	job := testJob(t, 16, topology.OnePerNode)
	for _, name := range append(StrategyNames(), "Tofu^0", "Tofu^0.5", "Tofu^2") {
		f, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if got := f(job, 1).Name(); got != name {
			t.Errorf("Lookup(%q) builds a selector named %q", name, got)
		}
	}
	for _, name := range []string{"", "tofu", "Tofu^", "Tofu^x", "Tofu^-1", "Tofu^NaN", "Rand^2"} {
		if f, err := Lookup(name); err == nil {
			t.Errorf("Lookup(%q) = %v, nil; want an error", name, f != nil)
		}
	}
}

// TestVictimDrawAllocFree: once a thief's table exists a draw
// allocates nothing, in either sampling regime.
func TestVictimDrawAllocFree(t *testing.T) {
	for _, ranks := range []int{1024, 4096} {
		s := NewDistanceSkewed(testJob(t, ranks, topology.OnePerNode), 1)
		for thief := 0; thief < ranks; thief++ {
			s.Next(thief)
		}
		thief := 0
		if allocs := testing.AllocsPerRun(2000, func() {
			s.Next(thief)
			thief = (thief + 1) % ranks
		}); allocs != 0 {
			t.Errorf("%d ranks: %v allocations per draw, want 0", ranks, allocs)
		}
	}
}

// TestVictimTablesAllocBudget bounds what the paper's selector costs a
// 1024-rank run in memory once every thief has drawn. The run that
// builds the tables pays 8 bytes per table cell (8 MB) plus the build
// scratch, where float probability, alias and pdf vectors plus
// per-table scratch came to about 46 MB; a later run on the geometry
// pays for its streams and buckets alone.
func TestVictimTablesAllocBudget(t *testing.T) {
	const ranks = 1024
	resetTableCache()
	for _, c := range []struct {
		name   string
		budget uint64
	}{{"cold", 10 << 20}, {"cached", 64 << 10}} {
		job := testJob(t, ranks, topology.OnePerNode)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := NewDistanceSkewed(job, 1)
		for thief := 0; thief < ranks; thief++ {
			s.Next(thief)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > c.budget {
			t.Fatalf("%s: selector with all %d thieves drawn allocated %d KB, budget %d KB", c.name, ranks, got>>10, c.budget>>10)
		}
		if tables := s.(*distanceSkewed).tables; tables[ranks-1].N() != ranks {
			t.Fatalf("%s: last thief's table holds %d outcomes", c.name, tables[ranks-1].N())
		}
	}
}
