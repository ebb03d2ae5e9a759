// Package victim implements the victim-selection strategies the paper
// studies, plus extensions used as ablation baselines.
//
// The paper's three strategies:
//
//   - RoundRobin — the reference UTS scheme: deterministic, rank i
//     first targets i+1 mod N and walks the ring; the walk position
//     persists across steals (§II-A).
//   - UniformRandom — the textbook scheme backing the theoretical
//     analyses of work stealing (§IV-A, "Rand").
//   - DistanceSkewed — the paper's contribution (§IV-B, "Tofu"):
//     victim j is drawn with probability proportional to
//     1/euclidean_distance(i, j) in the machine's 6-D coordinate space
//     (weight 1 when the distance is 0, i.e. same node).
//
// Extensions (not in the paper, used by the ablation benches):
// LastVictim, Hierarchical and Lifeline — see their constructors.
//
// Selectors are stateful per job: they hold per-rank walk positions,
// PRNG streams and sampling tables. They are not safe for concurrent
// use; the discrete-event simulator is single-threaded per run (only
// DistanceSkewed's alias tables are shared, built once per geometry).
//
// A thief's draws come from its own stream and nothing else reads it,
// which DistanceSkewed uses in both of its regimes. Up to 2048 ranks,
// where the thieves' alias tables outgrow the cache, it draws the
// bucket of a thief's next draw at the end of the current one and
// prefetches the table cell, so the draw itself finds the cell cached.
// Above, a rejection draw runs on a copy of the thief's generator and
// writes it back once, when it accepts: each round takes Uint64n for the
// candidate and Uint64 for its acceptance test, as the thief's stream
// always did, and measures the candidate against the thief's
// topology.Origin, loaded once per draw. Either way the stream is
// consumed in the same order and the victims are the same
// (distanceSkewed.nextAlias, distanceSkewed.Next).
package victim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"distws/internal/rng"
	"distws/internal/sample"
	"distws/internal/topology"
)

// Selector chooses steal victims for thieves.
type Selector interface {
	// Name identifies the strategy in reports.
	Name() string
	// Next returns the rank the thief should try to steal from next.
	// The result is always a valid rank different from thief (for jobs
	// with at least two ranks).
	Next(thief int) int
	// Observe reports the outcome of a steal attempt so stateful
	// strategies can adapt. Implementations may ignore it.
	Observe(thief, victim int, success bool)
}

// Factory builds a selector for a placed job. The seed must make the
// selector's random choices reproducible.
type Factory func(job *topology.Job, seed uint64) Selector

// ---------------------------------------------------------------------
// RoundRobin

type roundRobin struct {
	n    int
	next []int
}

// NewRoundRobin returns the reference UTS deterministic selector:
// thief i's first victim is (i+1) mod N, and each subsequent request
// (regardless of outcome) targets the following rank, skipping the
// thief itself.
func NewRoundRobin(job *topology.Job, _ uint64) Selector {
	n := job.Ranks()
	rr := &roundRobin{n: n, next: make([]int, n)}
	for i := range rr.next {
		rr.next[i] = (i + 1) % n
	}
	return rr
}

func (r *roundRobin) Name() string { return "RoundRobin" }

func (r *roundRobin) Next(thief int) int {
	v := r.next[thief]
	if v == thief {
		v = (v + 1) % r.n
	}
	r.next[thief] = (v + 1) % r.n
	return v
}

func (r *roundRobin) Observe(int, int, bool) {}

// ---------------------------------------------------------------------
// UniformRandom

type uniformRandom struct {
	n    int
	rand []rng.Xoshiro256
}

// NewUniformRandom returns the classical selector: each attempt draws a
// victim uniformly from the other ranks.
func NewUniformRandom(job *topology.Job, seed uint64) Selector {
	n := job.Ranks()
	u := &uniformRandom{n: n, rand: perRankStreams(n, seed)}
	return u
}

// perRankStreams returns one independent generator per rank, by value:
// a thief's draw touches its 32 bytes of state and nothing else.
func perRankStreams(n int, seed uint64) []rng.Xoshiro256 {
	streams := make([]rng.Xoshiro256, n)
	for i := range streams {
		streams[i].Seed(rng.Mix64(seed) ^ rng.Mix64(uint64(i)+0x51ed270693c5e191))
	}
	return streams
}

func (u *uniformRandom) Name() string { return "Rand" }

func (u *uniformRandom) Next(thief int) int {
	if u.n < 2 {
		return thief
	}
	v := u.rand[thief].Intn(u.n - 1)
	if v >= thief {
		v++
	}
	return v
}

func (u *uniformRandom) Observe(int, int, bool) {}

// ---------------------------------------------------------------------
// DistanceSkewed ("Tofu")

// aliasThreshold is the rank count up to which per-thief alias tables
// are built (once per geometry): the capacity of a sample.Discrete,
// whose 8-byte cells leave 11 bits for the alias. A table costs 8 bytes
// per rank per thief, 32 MB for all thieves at the threshold. Above it the
// selector uses exact rejection sampling instead — at 8192 simulated
// ranks in one address space the tables would need half a gigabyte,
// whereas the real distributed implementation pays O(N) per process.
// Both methods sample the same distribution.
const aliasThreshold = sample.MaxOutcomes

// distanceSkewed weighs victims by integer squared distance: a rank
// pair's e(i,j)^2 is a small integer (topology.Job.DistanceSq), so the
// weight 1/e^k is a table lookup, and so is the 53-bit acceptance
// threshold the rejection path compares a raw generator output with.
type distanceSkewed struct {
	job      *topology.Job
	n        int
	exponent float64
	rand     []rng.Xoshiro256
	// weight[d2] is w at squared distance d2; accept[d2] is
	// sample.Threshold(weight[d2]), built only for rejection sampling.
	weight []float64
	accept []uint64
	// tables[thief] is the thief's alias table (alias mode), shared
	// and read-only, fetched on the selector's first draw.
	tables []sample.Discrete
	// bucket[thief] is 1 + the bucket of the thief's next draw, drawn
	// from its stream at the end of the previous one and prefetched
	// (alias mode; 0 before the thief's first draw; see nextAlias).
	bucket   []int32
	useAlias bool
}

// NewDistanceSkewed returns the paper's latency-aware selector with the
// paper's weight w(i,j) = 1/e(i,j) (and 1 when e = 0).
func NewDistanceSkewed(job *topology.Job, seed uint64) Selector {
	return NewDistanceSkewedExp(job, seed, 1)
}

// checkExponent rejects exponents outside the selector's domain. A
// negative k would make weights exceed 1, which the alias tables would
// honour and the rejection path would clip, so the two regimes would
// sample different distributions.
func checkExponent(k float64) error {
	if !(k >= 0) {
		return fmt.Errorf("victim: distance-skew exponent %v is not >= 0", k)
	}
	return nil
}

// DistanceSkewedExp returns the factory of NewDistanceSkewedExp
// selectors with exponent k, or an error when k is negative or NaN.
func DistanceSkewedExp(k float64) (Factory, error) {
	if err := checkExponent(k); err != nil {
		return nil, err
	}
	return func(job *topology.Job, seed uint64) Selector {
		return NewDistanceSkewedExp(job, seed, k)
	}, nil
}

// NewDistanceSkewedExp generalizes the weight to 1/e(i,j)^k. k = 0
// degenerates to uniform random selection (used by ablation A5);
// larger k concentrates steals more locally. It panics when k is
// negative or NaN; DistanceSkewedExp validates a k that comes from
// outside the program.
func NewDistanceSkewedExp(job *topology.Job, seed uint64, k float64) Selector {
	if err := checkExponent(k); err != nil {
		panic(err)
	}
	n := job.Ranks()
	d := &distanceSkewed{
		job:      job,
		n:        n,
		exponent: k,
		rand:     perRankStreams(n, seed),
		weight:   make([]float64, job.MaxDistanceSq()+1),
		useAlias: n <= aliasThreshold,
	}
	// Per the paper: 1/e^k, or 1 at distance 0. Distinct nodes are at
	// distance >= 1, so with k >= 0 every weight is in [0, 1].
	d.weight[0] = 1
	for d2 := 1; d2 < len(d.weight); d2++ {
		d.weight[d2] = 1 / math.Pow(math.Sqrt(float64(d2)), k)
	}
	if d.useAlias {
		d.bucket = make([]int32, n)
	} else {
		d.accept = make([]uint64, len(d.weight))
		for d2, w := range d.weight {
			d.accept[d2] = sample.Threshold(w)
		}
	}
	return d
}

// skewPrefix starts the name of a distance-skewed selector with an
// exponent other than the paper's, as in "Tofu^2".
const skewPrefix = "Tofu^"

func (d *distanceSkewed) Name() string {
	if d.exponent == 1 {
		return "Tofu"
	}
	return fmt.Sprintf(skewPrefix+"%g", d.exponent)
}

// weightsInto fills w (one slot per rank) with the unnormalized weight
// vector of a thief: weight 0 at the thief's own index.
func (d *distanceSkewed) weightsInto(w []float64, thief int) {
	for j := range w {
		w[j] = d.weight[d.job.DistanceSq(thief, j)]
	}
	w[thief] = 0
}

// Weights returns the unnormalized weight vector for a thief, with
// weight 0 at the thief's own index. Used for Figure 8 and by tests.
func (d *distanceSkewed) Weights(thief int) []float64 {
	w := make([]float64, d.n)
	d.weightsInto(w, thief)
	return w
}

// PDF returns the normalized selection probabilities p(thief, ·) —
// exactly the p(i,j) of paper §IV-B.
func (d *distanceSkewed) PDF(thief int) []float64 {
	w := d.Weights(thief)
	var sum float64
	for _, v := range w {
		sum += v
	}
	for j := range w {
		w[j] /= sum
	}
	return w
}

func (d *distanceSkewed) Next(thief int) int {
	if d.n < 2 {
		return thief
	}
	if d.useAlias {
		return d.nextAlias(thief)
	}
	// Rejection sampling: draw a candidate uniformly, accept it with
	// probability w. Expected iterations = 1/mean(weight), 5.3 at 8192
	// ranks one per node. The loop draws from a copy of the thief's
	// generator, written back once it accepts, and measures from the
	// thief's Origin, loaded once. Every step of a round inlines but the
	// candidate's Uint64n, one call (make inline-check); Intn(n-1) would
	// check and reload n every round, about 1 % of steal-8k's run_s.
	r, o, others := d.rand[thief], d.job.Origin(thief), uint64(d.n-1)
	for {
		v := int(r.Uint64n(others))
		if v >= thief {
			v++
		}
		if sample.Accept(&r, d.accept[d.job.DistanceSqFrom(o, v)]) {
			d.rand[thief] = r
			return v
		}
	}
}

// nextAlias is Next in alias mode. The thieves' tables together (8 KB
// each) are larger than the cache, so the cell of a uniformly drawn
// bucket is a miss, and a draw that loads it on the spot waits for
// memory. Instead a draw ends by drawing the bucket of the thief's next
// one and prefetching its cell, which arrives while the thief's request
// is in flight. Only Next reads d.rand[thief], so the stream is still
// consumed as Intn, Uint64, Intn, Uint64, … and every victim is the one
// Sample would have returned; the bucket drawn after a thief's last
// draw is never used.
func (d *distanceSkewed) nextAlias(thief int) int {
	if d.tables == nil {
		d.tables = d.sharedTables()
	}
	r, t := &d.rand[thief], &d.tables[thief]
	i := int(d.bucket[thief]) - 1
	if i < 0 { // the thief's first draw
		i = r.Intn(d.n)
	}
	v := t.At(i, r)
	next := r.Intn(d.n)
	d.bucket[thief] = int32(next + 1)
	t.Prefetch(next)
	return v
}

// tableSets caches every thief's alias table by geometry, least recently
// used first; runs share it under mu and never write a published set.
var tableSets struct {
	mu    sync.Mutex
	sets  []*tableSet
	bytes int
}

// tableBudget bounds tableSets.bytes; the Default scale's 1024-rank rung
// takes 25 MB under all three placements.
const tableBudget = 64 << 20

// tableSet is the tables of job's geometry at exponent k; bytes counts 8
// a cell and 24 a table header.
type tableSet struct {
	job    *topology.Job
	k      float64
	tables []sample.Discrete
	bytes  int
}

// sharedTables returns the tables of d's geometry and exponent, building
// and publishing them on a miss. Runs that miss at once each build equal
// sets; the first one published is kept.
func (d *distanceSkewed) sharedTables() []sample.Discrete {
	tableSets.mu.Lock()
	s := findTables(d.job, d.exponent)
	tableSets.mu.Unlock()
	if s != nil {
		return s.tables
	}
	var b sample.Builder
	w, tables := make([]float64, d.n), make([]sample.Discrete, d.n)
	for thief := range tables {
		d.weightsInto(w, thief)
		var err error
		if tables[thief], err = b.Build(w); err != nil {
			panic(err) // n is in [2, aliasThreshold], weights in [0, 1], one > 0
		}
	}
	tableSets.mu.Lock()
	defer tableSets.mu.Unlock()
	if hit := findTables(d.job, d.exponent); hit != nil {
		return hit.tables
	}
	s = &tableSet{d.job, d.exponent, tables, 8 * d.n * (d.n + 3)}
	tableSets.sets = append(tableSets.sets, s)
	tableSets.bytes += s.bytes
	for tableSets.bytes > tableBudget {
		tableSets.bytes -= tableSets.sets[0].bytes
		tableSets.sets = slices.Delete(tableSets.sets, 0, 1)
	}
	return tables
}

// findTables returns the cached set of job's geometry at exponent k, now
// the most recently used, or nil. The caller holds tableSets.mu.
func findTables(job *topology.Job, k float64) *tableSet {
	for i, s := range tableSets.sets {
		if s.k == k && s.job.SameGeometry(job) {
			tableSets.sets = append(slices.Delete(tableSets.sets, i, i+1), s)
			return s
		}
	}
	return nil
}

func (d *distanceSkewed) Observe(int, int, bool) {}

// ---------------------------------------------------------------------
// LastVictim (extension)

type lastVictim struct {
	uniform Selector
	last    []int
	retry   []bool
}

// NewLastVictim returns a selector that first retries the last victim
// that yielded work (a classical locality heuristic) and falls back to
// uniform random selection otherwise.
func NewLastVictim(job *topology.Job, seed uint64) Selector {
	n := job.Ranks()
	lv := &lastVictim{
		uniform: NewUniformRandom(job, seed),
		last:    make([]int, n),
		retry:   make([]bool, n),
	}
	for i := range lv.last {
		lv.last[i] = -1
	}
	return lv
}

func (l *lastVictim) Name() string { return "LastVictim" }

func (l *lastVictim) Next(thief int) int {
	if l.retry[thief] && l.last[thief] >= 0 {
		l.retry[thief] = false
		return l.last[thief]
	}
	return l.uniform.Next(thief)
}

func (l *lastVictim) Observe(thief, victim int, success bool) {
	if success {
		l.last[thief] = victim
		l.retry[thief] = true
	}
}

// ---------------------------------------------------------------------
// Hierarchical (extension)

type hierarchical struct {
	job  *topology.Job
	n    int
	rand []rng.Xoshiro256
	// tiers[thief] lists the other ranks sorted by hierarchy level:
	// same node, same blade, same cube, same rack, rest. Built lazily.
	tiers    [][]int
	tierEnds [][5]int
	// cursor counts attempts in the current search to escalate levels.
	attempts []int
}

// NewHierarchical returns a two-level-style selector in the spirit of
// Min et al. and Quintin & Wagner (paper §VI): it retries close ranks
// (same node, blade, cube, rack) a few times before escalating to a
// uniform draw over everything. Unlike DistanceSkewed it uses fixed
// hierarchy levels rather than continuous distances.
func NewHierarchical(job *topology.Job, seed uint64) Selector {
	n := job.Ranks()
	return &hierarchical{
		job:      job,
		n:        n,
		rand:     perRankStreams(n, seed),
		tiers:    make([][]int, n),
		tierEnds: make([][5]int, n),
		attempts: make([]int, n),
	}
}

func (h *hierarchical) Name() string { return "Hierarchical" }

func (h *hierarchical) build(thief int) {
	level := func(j int) int {
		p, q := h.job.Coord(thief), h.job.Coord(j)
		switch {
		case p == q:
			return 0
		case topology.SameBlade(p, q):
			return 1
		case topology.SameCube(p, q):
			return 2
		case topology.SameRack(p, q):
			return 3
		default:
			return 4
		}
	}
	others := make([]int, 0, h.n-1)
	for j := 0; j < h.n; j++ {
		if j != thief {
			others = append(others, j)
		}
	}
	sort.SliceStable(others, func(a, b int) bool { return level(others[a]) < level(others[b]) })
	var ends [5]int
	for idx, j := range others {
		l := level(j)
		for k := l; k < 5; k++ {
			ends[k] = idx + 1
		}
	}
	// ends[k] = count of ranks at level <= k.
	h.tiers[thief] = others
	h.tierEnds[thief] = ends
}

// attemptsPerLevel is how many draws a thief makes within one hierarchy
// level before widening the candidate set.
const attemptsPerLevel = 2

func (h *hierarchical) Next(thief int) int {
	if h.n < 2 {
		return thief
	}
	if h.tiers[thief] == nil {
		h.build(thief)
	}
	lvl := h.attempts[thief] / attemptsPerLevel
	if lvl > 4 {
		lvl = 4
	}
	h.attempts[thief]++
	// Find the narrowest non-empty candidate set at or above lvl.
	end := 0
	for l := lvl; l < 5; l++ {
		if e := h.tierEnds[thief][l]; e > 0 {
			end = e
			break
		}
	}
	if end == 0 {
		end = len(h.tiers[thief])
	}
	return h.tiers[thief][h.rand[thief].Intn(end)]
}

func (h *hierarchical) Observe(thief, _ int, success bool) {
	if success {
		h.attempts[thief] = 0
	}
}

// ---------------------------------------------------------------------
// Lifeline (extension)

type lifeline struct {
	job   *topology.Job
	n     int
	rand  []rng.Xoshiro256
	links [][]int
	// pos cycles through lifeline links after random attempts fail.
	attempts []int
}

// randomAttemptsBeforeLifeline mirrors the threshold w of
// lifeline-based global load balancing (Saraswat et al., paper §VI):
// after this many random attempts the thief turns to its lifelines.
const randomAttemptsBeforeLifeline = 3

// NewLifeline returns a simplified lifeline selector: each rank has
// log2(N) hypercube neighbors as lifelines; a thief tries uniform
// random victims first and then cycles deterministically through its
// lifelines. (The full lifeline scheme makes idle workers passive; a
// pull-only simplification keeps the Selector interface uniform. The
// point of including it is a steal-*pattern* baseline, not a faithful
// X10 GLB port.)
func NewLifeline(job *topology.Job, seed uint64) Selector {
	n := job.Ranks()
	l := &lifeline{
		job:      job,
		n:        n,
		rand:     perRankStreams(n, seed),
		links:    make([][]int, n),
		attempts: make([]int, n),
	}
	for i := 0; i < n; i++ {
		for bit := 1; bit < n; bit <<= 1 {
			if peer := i ^ bit; peer < n && peer != i {
				l.links[i] = append(l.links[i], peer)
			}
		}
		if len(l.links[i]) == 0 { // n == 1
			l.links[i] = []int{i}
		}
	}
	return l
}

func (l *lifeline) Name() string { return "Lifeline" }

func (l *lifeline) Next(thief int) int {
	if l.n < 2 {
		return thief
	}
	a := l.attempts[thief]
	l.attempts[thief]++
	if a < randomAttemptsBeforeLifeline {
		v := l.rand[thief].Intn(l.n - 1)
		if v >= thief {
			v++
		}
		return v
	}
	links := l.links[thief]
	return links[(a-randomAttemptsBeforeLifeline)%len(links)]
}

func (l *lifeline) Observe(thief, _ int, success bool) {
	if success {
		l.attempts[thief] = 0
	}
}

// ---------------------------------------------------------------------
// Registry

// Strategies lists the built-in selector factories by report name.
var Strategies = map[string]Factory{
	"RoundRobin":   NewRoundRobin,
	"Rand":         NewUniformRandom,
	"Tofu":         NewDistanceSkewed,
	"LastVictim":   NewLastVictim,
	"Hierarchical": NewHierarchical,
	"Lifeline":     NewLifeline,
}

// Lookup resolves a selector name as reports print it: a registered
// strategy, or "Tofu^K" for the distance-skewed selector with weight
// exponent K (a number >= 0).
func Lookup(name string) (Factory, error) {
	if f, ok := Strategies[name]; ok {
		return f, nil
	}
	if exp, ok := strings.CutPrefix(name, skewPrefix); ok {
		k, err := strconv.ParseFloat(exp, 64)
		if err != nil {
			return nil, fmt.Errorf("victim: selector %q: exponent %q is not a number", name, exp)
		}
		return DistanceSkewedExp(k)
	}
	return nil, fmt.Errorf("victim: unknown selector %q (have %s, %sK)",
		name, strings.Join(StrategyNames(), ", "), skewPrefix)
}

// StrategyNames returns the registered names, sorted.
func StrategyNames() []string {
	names := make([]string, 0, len(Strategies))
	for n := range Strategies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
