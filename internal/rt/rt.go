// Package rt is a real shared-memory work-stealing runtime: it executes
// a UTS traversal on goroutines pinned one per CPU-ish worker, with
// chunked per-worker stacks and pluggable victim selection.
//
// It complements the discrete-event simulator: the simulator studies
// distributed-memory effects at thousands of ranks with virtual time,
// while this runtime demonstrates (and benchmarks, with real wall-clock
// time and allocation counts) the same chunked-stack and
// victim-selection machinery under genuine concurrency. Victim
// "distance" here is the ring distance between worker indices, a proxy
// for cache/NUMA locality.
//
// Two queue designs are provided (Config.Queue): the UTS chunked
// design — a private node buffer plus a mutex-protected shared stack,
// with surplus released in chunks and thieves taking whole chunks —
// and the lock-free Chase–Lev deque (internal/deque), which the
// paper's §VI cites in its discussion of steal contention.
package rt

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"distws/internal/deque"
	"distws/internal/obs"
	"distws/internal/rng"
	"distws/internal/uts"
	"distws/internal/workstack"
)

// SelectorKind picks the victim-selection strategy.
type SelectorKind uint8

const (
	// RoundRobin scans workers deterministically, as the reference UTS.
	RoundRobin SelectorKind = iota
	// Random picks victims uniformly.
	Random
	// RingSkewed weighs victims by inverse ring distance between worker
	// indices — the shared-memory analogue of the paper's Tofu
	// selection.
	RingSkewed
)

func (k SelectorKind) String() string {
	switch k {
	case RoundRobin:
		return "RoundRobin"
	case Random:
		return "Random"
	case RingSkewed:
		return "RingSkewed"
	default:
		return fmt.Sprintf("SelectorKind(%d)", uint8(k))
	}
}

// Queue selects the per-worker queue implementation.
type Queue uint8

const (
	// Chunked is the UTS design: a private buffer plus a
	// mutex-protected shared stack of chunks.
	Chunked Queue = iota
	// ChaseLev uses the lock-free Chase–Lev deque (internal/deque),
	// Cilk-style: thieves take single nodes from the top with a CAS.
	// The paper's §VI cites Chase & Lev for steal-contention issues;
	// this mode lets the benchmarks compare the two designs directly.
	// ChunkSize/ReleaseThreshold/StealHalf do not apply.
	ChaseLev
)

func (q Queue) String() string {
	if q == ChaseLev {
		return "ChaseLev"
	}
	return "Chunked"
}

// Config describes one parallel traversal.
type Config struct {
	Tree uts.Params
	// Workers defaults to GOMAXPROCS.
	Workers int
	// Queue selects the queue design (default Chunked).
	Queue Queue
	// ChunkSize defaults to the UTS chunk of 20 nodes (Chunked only).
	ChunkSize int
	// ReleaseThreshold is the private-buffer size above which a chunk
	// is released to the shared stack; defaults to 2*ChunkSize
	// (Chunked only).
	ReleaseThreshold int
	Selector         SelectorKind
	// StealHalf takes half the victim's chunks instead of one
	// (Chunked only).
	StealHalf bool
	Seed      uint64

	// Metrics, when non-nil, receives live counters, a wall-clock
	// work-acquisition latency histogram, and the worker×worker probe
	// matrix. Updates are lock-free atomics on the hot path; the
	// time.Now calls they require are gated behind the nil check, so an
	// uninstrumented run never reads the clock mid-loop. This package is
	// the walltime analyzer's allowlisted side: it measures real time
	// itself and feeds durations into the registry as plain numbers.
	Metrics *obs.Registry
}

// Metric names the runtime publishes into Config.Metrics. The rt_
// prefix separates real wall-clock series from the simulator's virtual
// sim_ series, so a dashboard can never conflate the two time bases.
const (
	MetricSteals       = "rt_steals_total"
	MetricFailedSteals = "rt_failed_steals_total"
	MetricChunks       = "rt_chunks_released_total"
	MetricNodes        = "rt_nodes_total"
	MetricStealWait    = "rt_steal_wait_ns"
	MetricProbes       = "rt_probe_matrix"
	MetricMigration    = "rt_migration_depth"
)

// rtMetrics pre-resolves registry handles so workers pay one atomic op
// per update instead of a map lookup under the registry mutex.
type rtMetrics struct {
	steals    *obs.Counter
	fails     *obs.Counter
	chunks    *obs.Counter
	stealWait *obs.Histogram
	migration *obs.Histogram
	probes    *obs.Matrix
}

func newRTMetrics(reg *obs.Registry, workers int) *rtMetrics {
	if reg == nil {
		return nil
	}
	return &rtMetrics{
		steals:    reg.Counter(MetricSteals),
		fails:     reg.Counter(MetricFailedSteals),
		chunks:    reg.Counter(MetricChunks),
		stealWait: reg.Histogram(MetricStealWait),
		migration: reg.Histogram(MetricMigration),
		probes:    reg.Matrix(MetricProbes, workers),
	}
}

// Result summarizes a parallel traversal.
type Result struct {
	Nodes    uint64
	Leaves   uint64
	MaxDepth int32
	Elapsed  time.Duration
	// Steals and FailedSteals count successful chunk thefts and empty
	// probes across all workers.
	Steals       uint64
	FailedSteals uint64
	// ChunksReleased counts private-to-shared transfers.
	ChunksReleased uint64
	Workers        int
}

type worker struct {
	id    int
	local []uts.Node

	mu     sync.Mutex
	shared *workstack.Stack

	// dq replaces local/shared in ChaseLev mode.
	dq *deque.Deque[uts.Node]

	rand *rng.Xoshiro256
	next int // round-robin cursor

	nodes, leaves uint64
	maxDepth      int32
	steals, fails uint64
	released      uint64

	// gen is the migration depth of the work the worker currently
	// holds — the shared-memory analogue of the simulator's work
	// lineage. Thieves read their victim's gen and store gen+1, so it
	// is atomic: both sides touch it concurrently. Only maintained when
	// metrics are on (it feeds rt_migration_depth and nothing else).
	gen atomic.Int64

	_ [4]uint64 // pad against false sharing of hot fields
}

type pool struct {
	cfg     Config
	workers []*worker
	// pending counts tree nodes resident anywhere (private buffers,
	// shared stacks, or in a thief's hands). It is updated atomically
	// with each expansion (children added, parent removed in one add),
	// so it reaches zero exactly when the traversal is complete —
	// a race-free termination criterion.
	pending atomic.Int64
	met     *rtMetrics // nil when Config.Metrics is unset
}

// Run traverses the tree in parallel and returns exact statistics.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Tree.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers < 1 {
		return nil, errors.New("rt: non-positive worker count")
	}
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = workstack.DefaultChunkSize
	}
	if cfg.ChunkSize < 1 || cfg.ChunkSize > workstack.MaxChunkSize {
		return nil, fmt.Errorf("rt: chunk size %d not in [1, %d]", cfg.ChunkSize, workstack.MaxChunkSize)
	}
	if cfg.ReleaseThreshold == 0 {
		cfg.ReleaseThreshold = 2 * cfg.ChunkSize
	}
	if cfg.ReleaseThreshold < cfg.ChunkSize {
		return nil, errors.New("rt: release threshold below chunk size")
	}

	p := &pool{cfg: cfg, workers: make([]*worker, cfg.Workers)}
	p.met = newRTMetrics(cfg.Metrics, cfg.Workers)
	for i := range p.workers {
		p.workers[i] = &worker{
			id:     i,
			shared: workstack.New(cfg.ChunkSize),
			rand:   rng.New(rng.Mix64(cfg.Seed) ^ rng.Mix64(uint64(i)+0xabcdef)),
			next:   (i + 1) % cfg.Workers,
		}
		if cfg.Queue == ChaseLev {
			p.workers[i].dq = deque.New[uts.Node](256)
		}
	}
	if cfg.Queue == ChaseLev {
		root := cfg.Tree.Root()
		p.workers[0].dq.PushBottom(&root)
	} else {
		p.workers[0].local = append(p.workers[0].local, cfg.Tree.Root())
	}
	p.pending.Store(1)

	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range p.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			p.runWorker(w)
		}(w)
	}
	wg.Wait()

	res := &Result{Elapsed: time.Since(start), Workers: cfg.Workers}
	for _, w := range p.workers {
		res.Nodes += w.nodes
		res.Leaves += w.leaves
		if w.maxDepth > res.MaxDepth {
			res.MaxDepth = w.maxDepth
		}
		res.Steals += w.steals
		res.FailedSteals += w.fails
		res.ChunksReleased += w.released
	}
	if reg := cfg.Metrics; reg != nil {
		// Node totals come from the per-worker tallies at the end — one
		// atomic per expansion would tax the hottest loop for a number
		// that only settles at termination. The steal-side series are
		// fed live so a /metrics scrape mid-run shows them moving.
		reg.Counter(MetricNodes).Add(res.Nodes)
	}
	return res, nil
}

// runWorker is the worker main loop: expand local work, release
// surplus, and steal when starved.
func (p *pool) runWorker(w *worker) {
	if p.cfg.Queue == ChaseLev {
		p.runWorkerDeque(w)
		return
	}
	for {
		if len(w.local) > 0 {
			p.expand(w)
			continue
		}
		if p.reacquire(w) {
			continue
		}
		if p.stealLoop(w) {
			continue
		}
		return // global termination
	}
}

// runWorkerDeque is the Chase–Lev variant: the deque is both the local
// stack (owner end) and the steal target (thief end).
func (p *pool) runWorkerDeque(w *worker) {
	for {
		n, ok := w.dq.PopBottom()
		if !ok {
			if p.stealLoopDeque(w) {
				continue
			}
			return
		}
		w.nodes++
		if n.Height > w.maxDepth {
			w.maxDepth = n.Height
		}
		nchild := p.cfg.Tree.NumChildren(n)
		if nchild == 0 {
			w.leaves++
		}
		// Count the children BEFORE they become stealable: a thief could
		// otherwise steal and finish a child (decrementing pending)
		// while this node's +nchild is still unapplied, driving pending
		// to zero with work outstanding. (The chunked mode is safe by
		// construction: children sit in the private buffer until after
		// the add.) Overshoot in the other direction is harmless —
		// pending only needs to be an upper bound until quiescence.
		p.pending.Add(int64(nchild) - 1)
		for i := 0; i < nchild; i++ {
			child := p.cfg.Tree.Child(n, i)
			w.dq.PushBottom(&child)
		}
	}
}

// stealLoopDeque hunts single nodes from victims' deque tops.
func (p *pool) stealLoopDeque(w *worker) bool {
	if p.cfg.Workers == 1 {
		return false
	}
	var waitStart time.Time
	if p.met != nil {
		waitStart = time.Now()
	}
	for spins := 0; ; spins++ {
		if p.pending.Load() == 0 {
			return false
		}
		vi := p.selectVictim(w)
		v := p.workers[vi]
		if p.met != nil {
			p.met.probes.Inc(w.id, vi)
		}
		n, st := v.dq.Steal()
		if st == deque.OK {
			w.steals++
			if p.met != nil {
				p.met.steals.Inc()
				p.met.stealWait.Observe(int64(time.Since(waitStart)))
				d := v.gen.Load() + 1
				w.gen.Store(d)
				p.met.migration.Observe(d)
			}
			w.dq.PushBottom(n)
			return true
		}
		if st == deque.Empty {
			w.fails++
			if p.met != nil {
				p.met.fails.Inc()
			}
		}
		if spins%64 == 63 {
			runtime.Gosched()
		}
	}
}

// expand processes one node from the private buffer and releases
// surplus to the shared stack.
func (p *pool) expand(w *worker) {
	n := w.local[len(w.local)-1]
	w.local = w.local[:len(w.local)-1]
	w.nodes++
	if n.Height > w.maxDepth {
		w.maxDepth = n.Height
	}
	before := len(w.local)
	w.local = p.cfg.Tree.AppendChildren(w.local, &n)
	nchild := len(w.local) - before
	if nchild == 0 {
		w.leaves++
	}
	p.pending.Add(int64(nchild) - 1)
	if len(w.local) > p.cfg.ReleaseThreshold {
		p.release(w)
	}
}

// release moves the oldest chunk of private nodes to the shared stack.
func (p *pool) release(w *worker) {
	cs := p.cfg.ChunkSize
	w.mu.Lock()
	for _, n := range w.local[:cs] {
		w.shared.Push(n)
	}
	w.mu.Unlock()
	w.local = append(w.local[:0], w.local[cs:]...)
	w.released++
	if p.met != nil {
		p.met.chunks.Inc()
	}
}

// reacquire pulls a chunk back from the worker's own shared stack. It
// uses TakeTop, not Steal: the private-chunk rule does not apply to an
// owner reclaiming its own released work (and Steal would strand the
// final chunk forever — unreachable by owner and thieves alike).
func (p *pool) reacquire(w *worker) bool {
	w.mu.Lock()
	loot, ok := w.shared.TakeTop()
	w.mu.Unlock()
	if !ok {
		return false
	}
	w.local = append(w.local, loot...)
	return true
}

// selectVictim picks the next victim for w under the configured policy.
func (p *pool) selectVictim(w *worker) int {
	n := p.cfg.Workers
	switch p.cfg.Selector {
	case Random:
		v := w.rand.Intn(n - 1)
		if v >= w.id {
			v++
		}
		return v
	case RingSkewed:
		// Rejection-sample with weight 1/ringDistance.
		for {
			v := w.rand.Intn(n - 1)
			if v >= w.id {
				v++
			}
			d := ringDist(w.id, v, n)
			if d <= 1 || w.rand.Float64() < 1/float64(d) {
				return v
			}
		}
	default: // RoundRobin
		v := w.next
		if v == w.id {
			v = (v + 1) % n
		}
		w.next = (v + 1) % n
		return v
	}
}

func ringDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// stealLoop hunts for work until it finds some (true) or the pending
// counter shows the traversal is complete (false). The counter can
// never return to zero's complement: once it reaches zero no node
// exists anywhere, so no expansion can increment it again.
func (p *pool) stealLoop(w *worker) bool {
	if p.cfg.Workers == 1 {
		return false
	}
	var waitStart time.Time
	if p.met != nil {
		waitStart = time.Now()
	}
	for spins := 0; ; spins++ {
		if p.pending.Load() == 0 {
			return false
		}
		vi := p.selectVictim(w)
		v := p.workers[vi]
		if p.met != nil {
			p.met.probes.Inc(w.id, vi)
		}
		v.mu.Lock()
		var loot []uts.Node
		var k int
		if p.cfg.StealHalf {
			loot, k = v.shared.StealHalf()
		} else {
			loot, k = v.shared.StealOne()
		}
		v.mu.Unlock()
		if k > 0 {
			w.steals++
			if p.met != nil {
				p.met.steals.Inc()
				p.met.stealWait.Observe(int64(time.Since(waitStart)))
				d := v.gen.Load() + 1
				w.gen.Store(d)
				p.met.migration.Observe(d)
			}
			w.local = append(w.local, loot...)
			return true
		}
		w.fails++
		if p.met != nil {
			p.met.fails.Inc()
		}
		if spins%64 == 63 {
			runtime.Gosched()
		}
	}
}
