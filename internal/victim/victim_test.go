package victim

import (
	"math"
	"testing"

	"distws/internal/topology"
)

func testJob(t testing.TB, nranks int, p topology.Placement) *topology.Job {
	t.Helper()
	job, err := topology.NewJob(topology.KComputer(), nranks, p)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func TestRoundRobinSequence(t *testing.T) {
	job := testJob(t, 8, topology.OnePerNode)
	s := NewRoundRobin(job, 0)
	// Thief 0: victims 1,2,3,...,7, then wraps skipping itself: 1,2,...
	want := []int{1, 2, 3, 4, 5, 6, 7, 1, 2}
	for i, w := range want {
		if got := s.Next(0); got != w {
			t.Fatalf("attempt %d: got %d want %d", i, got, w)
		}
	}
	// Thief 6 starts at 7, wraps over 0 and skips itself at 6.
	want6 := []int{7, 0, 1, 2, 3, 4, 5, 7}
	for i, w := range want6 {
		if got := s.Next(6); got != w {
			t.Fatalf("thief 6 attempt %d: got %d want %d", i, got, w)
		}
	}
}

func TestRoundRobinStatePersistsAcrossObserve(t *testing.T) {
	// Paper: "a successful steal does not impact this choice: the next
	// search for work will start at the neighbor of the last victim."
	job := testJob(t, 4, topology.OnePerNode)
	s := NewRoundRobin(job, 0)
	first := s.Next(0) // 1
	s.Observe(0, first, true)
	if got := s.Next(0); got != 2 {
		t.Fatalf("after successful steal of 1, next = %d, want 2", got)
	}
}

func TestUniformRandomCoverageAndExclusion(t *testing.T) {
	job := testJob(t, 16, topology.OnePerNode)
	s := NewUniformRandom(job, 7)
	counts := make([]int, 16)
	const draws = 32000
	for i := 0; i < draws; i++ {
		v := s.Next(3)
		if v == 3 {
			t.Fatal("uniform selector returned the thief")
		}
		counts[v]++
	}
	for j, c := range counts {
		if j == 3 {
			continue
		}
		got := float64(c) / draws
		if math.Abs(got-1.0/15) > 0.01 {
			t.Fatalf("rank %d frequency %v, want ~%v", j, got, 1.0/15)
		}
	}
}

func TestSelectorDeterminism(t *testing.T) {
	job := testJob(t, 64, topology.OnePerNode)
	for name, factory := range Strategies {
		a := factory(job, 99)
		b := factory(job, 99)
		for i := 0; i < 500; i++ {
			thief := i % 64
			va, vb := a.Next(thief), b.Next(thief)
			if va != vb {
				t.Fatalf("%s: same-seed selectors diverged at draw %d", name, i)
			}
			a.Observe(thief, va, i%5 == 0)
			b.Observe(thief, vb, i%5 == 0)
		}
	}
}

func TestSelectorsNeverReturnThief(t *testing.T) {
	job := testJob(t, 32, topology.EightGrouped)
	for name, factory := range Strategies {
		s := factory(job, 3)
		for i := 0; i < 2000; i++ {
			thief := i % 32
			v := s.Next(thief)
			if v == thief {
				t.Fatalf("%s returned the thief itself", name)
			}
			if v < 0 || v >= 32 {
				t.Fatalf("%s returned out-of-range rank %d", name, v)
			}
			s.Observe(thief, v, i%7 == 0)
		}
	}
}

func TestDistanceSkewedPDF(t *testing.T) {
	job := testJob(t, 256, topology.OnePerNode)
	s := NewDistanceSkewed(job, 1).(*distanceSkewed)
	pdf := s.PDF(0)
	if len(pdf) != 256 {
		t.Fatalf("pdf length %d", len(pdf))
	}
	if pdf[0] != 0 {
		t.Fatal("thief has non-zero selection probability")
	}
	sum := 0.0
	for _, p := range pdf {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("pdf sums to %v", sum)
	}
	// Closer ranks must be more probable: compare the nearest other
	// rank with the farthest.
	near, far := -1, -1
	nd, fd := math.Inf(1), 0.0
	for j := 1; j < 256; j++ {
		d := job.Distance(0, j)
		if d < nd {
			nd, near = d, j
		}
		if d > fd {
			fd, far = d, j
		}
	}
	if pdf[near] <= pdf[far] {
		t.Fatalf("near rank %d (d=%v) p=%v not more probable than far rank %d (d=%v) p=%v",
			near, nd, pdf[near], far, fd, pdf[far])
	}
	// And the ratio must follow the weights: p ~ 1/d.
	wantRatio := fd / nd
	gotRatio := pdf[near] / pdf[far]
	if math.Abs(gotRatio-wantRatio)/wantRatio > 1e-9 {
		t.Fatalf("probability ratio %v, want %v", gotRatio, wantRatio)
	}
}

func TestDistanceSkewedSameNodeWeight(t *testing.T) {
	// Under 8G, ranks 0..7 share a node: distance 0, weight 1 — the
	// highest possible. They must dominate the PDF.
	job := testJob(t, 64, topology.EightGrouped)
	s := NewDistanceSkewed(job, 1).(*distanceSkewed)
	w := s.Weights(0)
	for j := 1; j < 8; j++ {
		if w[j] != 1 {
			t.Fatalf("same-node weight w[0][%d] = %v, want 1", j, w[j])
		}
	}
	for j := 8; j < 64; j++ {
		d := job.Distance(0, j)
		if d <= 0 {
			t.Fatalf("cross-node pair (0,%d) at distance %v", j, d)
		}
		if want := 1 / d; math.Abs(w[j]-want) > 1e-12 {
			t.Fatalf("cross-node weight w[0][%d] = %v, want 1/d = %v", j, w[j], want)
		}
	}
}

func TestDistanceSkewedEmpiricalMatchesPDF(t *testing.T) {
	job := testJob(t, 128, topology.OnePerNode)
	s := NewDistanceSkewed(job, 5).(*distanceSkewed)
	pdf := s.PDF(0)
	const draws = 200000
	counts := make([]int, 128)
	for i := 0; i < draws; i++ {
		counts[s.Next(0)]++
	}
	for j := 1; j < 128; j++ {
		got := float64(counts[j]) / draws
		if math.Abs(got-pdf[j]) > 0.008 {
			t.Fatalf("rank %d frequency %v vs pdf %v", j, got, pdf[j])
		}
	}
}

func TestDistanceSkewedRejectionMatchesAlias(t *testing.T) {
	// Above aliasThreshold the selector switches to rejection sampling;
	// both must realize the same distribution. Compare empirical
	// frequencies of the rejection path against the exact PDF on a job
	// large enough to trigger it.
	job := testJob(t, 4096, topology.OnePerNode)
	s := NewDistanceSkewed(job, 11).(*distanceSkewed)
	if s.useAlias {
		t.Fatal("test setup: expected rejection mode at 4096 ranks")
	}
	pdf := s.PDF(0)
	const draws = 300000
	counts := make([]int, 4096)
	for i := 0; i < draws; i++ {
		counts[s.Next(0)]++
	}
	// Aggregate into 16 distance-ordered bins to get stable statistics.
	type rankP struct {
		j int
		p float64
	}
	var byP []rankP
	for j := 1; j < 4096; j++ {
		byP = append(byP, rankP{j, pdf[j]})
	}
	const bins = 16
	per := len(byP) / bins
	for b := 0; b < bins; b++ {
		var wantP, gotP float64
		for i := b * per; i < (b+1)*per; i++ {
			wantP += byP[i].p
			gotP += float64(counts[byP[i].j]) / draws
		}
		if math.Abs(gotP-wantP) > 0.01 {
			t.Fatalf("bin %d: empirical %v vs pdf %v", b, gotP, wantP)
		}
	}
}

func TestDistanceSkewedExpZeroIsUniform(t *testing.T) {
	job := testJob(t, 64, topology.OnePerNode)
	s := NewDistanceSkewedExp(job, 1, 0).(*distanceSkewed)
	pdf := s.PDF(5)
	for j := 0; j < 64; j++ {
		if j == 5 {
			continue
		}
		if math.Abs(pdf[j]-1.0/63) > 1e-9 {
			t.Fatalf("k=0 pdf[%d] = %v, want uniform %v", j, pdf[j], 1.0/63)
		}
	}
	if s.Name() != "Tofu^0" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestLastVictimRetriesOnSuccess(t *testing.T) {
	job := testJob(t, 16, topology.OnePerNode)
	s := NewLastVictim(job, 5)
	v := s.Next(2)
	s.Observe(2, v, true)
	if got := s.Next(2); got != v {
		t.Fatalf("after success on %d, next = %d", v, got)
	}
	// After a failure on the retried victim, fall back to random.
	s.Observe(2, v, false)
	seenOther := false
	for i := 0; i < 50; i++ {
		if s.Next(2) != v {
			seenOther = true
			break
		}
	}
	if !seenOther {
		t.Fatal("LastVictim stuck on failed victim")
	}
}

func TestHierarchicalPrefersClose(t *testing.T) {
	job := testJob(t, 64, topology.EightGrouped)
	s := NewHierarchical(job, 9)
	// First attempts of a search must stay on the thief's node
	// (ranks 8..15 for thief 8).
	for trial := 0; trial < 20; trial++ {
		s.Observe(8, 0, true) // reset escalation
		v := s.Next(8)
		if v < 8 || v > 15 {
			t.Fatalf("first attempt went off-node to %d", v)
		}
	}
	// Without successes the search must eventually escalate off-node.
	s.Observe(8, 0, true)
	offNode := false
	for i := 0; i < 20; i++ {
		if v := s.Next(8); v < 8 || v > 15 {
			offNode = true
			break
		}
	}
	if !offNode {
		t.Fatal("hierarchical selector never escalated")
	}
}

func TestLifelineCyclesLinks(t *testing.T) {
	job := testJob(t, 16, topology.OnePerNode)
	s := NewLifeline(job, 3).(*lifeline)
	// Exhaust the random attempts.
	for i := 0; i < randomAttemptsBeforeLifeline; i++ {
		s.Next(0)
	}
	// Then the thief cycles deterministically through hypercube links
	// 1, 2, 4, 8.
	want := []int{1, 2, 4, 8, 1, 2}
	for i, w := range want {
		if got := s.Next(0); got != w {
			t.Fatalf("lifeline attempt %d: got %d want %d", i, got, w)
		}
	}
	// Success resets to random phase.
	s.Observe(0, 1, true)
	if s.attempts[0] != 0 {
		t.Fatal("success did not reset lifeline attempts")
	}
}

func TestStrategyRegistry(t *testing.T) {
	names := StrategyNames()
	if len(names) != 6 {
		t.Fatalf("expected 6 strategies, got %v", names)
	}
	job := testJob(t, 8, topology.OnePerNode)
	for _, n := range names {
		s := Strategies[n](job, 1)
		if s == nil {
			t.Fatalf("factory %q returned nil", n)
		}
		if s.Name() == "" {
			t.Fatalf("strategy %q has empty name", n)
		}
	}
}

func TestTwoRankJob(t *testing.T) {
	// Degenerate case: with 2 ranks every selector must return the
	// other rank.
	job := testJob(t, 2, topology.OnePerNode)
	for name, factory := range Strategies {
		s := factory(job, 1)
		for i := 0; i < 20; i++ {
			if v := s.Next(0); v != 1 {
				t.Fatalf("%s: Next(0) = %d with 2 ranks", name, v)
			}
			if v := s.Next(1); v != 0 {
				t.Fatalf("%s: Next(1) = %d with 2 ranks", name, v)
			}
		}
	}
}

func BenchmarkRoundRobinNext(b *testing.B) {
	job := testJob(b, 1024, topology.OnePerNode)
	s := NewRoundRobin(job, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next(i % 1024)
	}
}

// BenchmarkVictimDraw prices one draw of the paper's selector in both
// regimes, tables built: an alias draw at 1024 ranks and a rejection
// draw at 8192. The thieves take turns, so back-to-back iterations are
// independent and the CPU overlaps one draw's table miss with the next
// draws — which a run, with a round trip between a thief's draws, cannot
// do. alias-1024-evicted is the draw as a run sees it: between draws
// the loop reads 2 KB of a 16 MB scratch, enough that a cell is never
// still cached from its last use and that a miss cannot hide behind the
// next iteration; what is left is the miss itself, or, with the bucket
// drawn a draw early and prefetched, the walk (about 25 ns).
func BenchmarkVictimDraw(b *testing.B) {
	scratch := make([]uint64, 16<<20/8) // a power of two of words
	for _, c := range []struct {
		name  string
		ranks int
		walk  int // scratch cache lines read after each draw
	}{{"alias-1024", 1024, 0}, {"alias-1024-evicted", 1024, 32}, {"reject-8192", 8192, 0}} {
		b.Run(c.name, func(b *testing.B) {
			s := NewDistanceSkewed(testJob(b, c.ranks, topology.OnePerNode), 1)
			for thief := 0; thief < c.ranks; thief++ {
				s.Next(thief)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sum uint64
			for i, pos := 0, 0; i < b.N; i++ {
				s.Next(i % c.ranks)
				for j := 0; j < c.walk; j++ {
					sum += scratch[pos]
					pos = (pos + 8) & (len(scratch) - 1)
				}
			}
			walkSink = sum
		})
	}
}

// walkSink keeps the scratch walk of BenchmarkVictimDraw alive.
var walkSink uint64
