package core

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/uts"
	"distws/internal/victim"
)

// resetRunStores empties the list of released run stores, so the next
// run starts from a fresh one.
func resetRunStores() {
	runStores.mu.Lock()
	defer runStores.mu.Unlock()
	runStores.free = nil
}

// storeBytes is what st retains: its kernel, its recorder's storage,
// its rank and state slabs, worker pages and pooled segments.
func storeBytes(st *runStore) int {
	b := cap(st.ranks)*int(unsafe.Sizeof(rank{})) + cap(st.states) + st.rec.Bytes()
	if st.kernel != nil {
		b += st.kernel.Bytes()
	}
	for _, ws := range st.work {
		b += len(ws.pages)*workerPage*int(unsafe.Sizeof(worker{})) + ws.pool.Bytes()
	}
	return b
}

// resultDigest hashes everything a Result reports — its fields, the
// serving summary and the trace with its event log — without changing
// it.
func resultDigest(t testing.TB, res *Result) string {
	h := sha256.New()
	r := *res
	r.Trace, r.Serve, r.Par = nil, nil, nil // pointers would print as addresses
	fmt.Fprintf(h, "%+v\n", r)
	if res.Serve != nil {
		fmt.Fprintf(h, "%+v\n", *res.Serve)
	}
	if res.Trace != nil {
		if err := res.Trace.WriteJSONL(h); err != nil {
			t.Error(err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRunStoreReuse: a crash plan, an activity-level traced run, a
// serving run (also traced at the activity level), an events-level
// traced run whose logs evict and the Fig. 9 config (events level at
// the default cap), each at another rank count than the run before it,
// run back to back on reused stores by three goroutines at once, each
// return the result the same config returns from a fresh store, and a
// result does not change when later runs reuse its storage — kernel
// and recorder included.
func TestRunStoreReuse(t *testing.T) {
	cases := deliveryCases()
	activity, events := cases["aborting"], cases["one-sided/coarse-poll"]
	activity.CollectTrace = true
	events.CollectEvents, events.EventBuffer = true, 64
	cfgs := []Config{cases["crash+dup"], activity, serveTestConfig(), events, goldenFig9Config()}
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		resetRunStores()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultDigest(t, res)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results := make([]*Result, len(cfgs))
			for i, cfg := range cfgs {
				res, err := Run(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if resultDigest(t, res) != want[i] {
					t.Errorf("goroutine %d, config %d: result differs from a fresh store's", g, i)
				}
				results[i] = res
			}
			for i, res := range results {
				if resultDigest(t, res) != want[i] {
					t.Errorf("goroutine %d, config %d: result changed after later runs", g, i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestRunStorageAllocBudget: a second identical 1 024-rank closed run
// allocates no kernel, segment, worker page, rank slab or state slab.
// It takes the store the first one handed back, and hands it back
// holding exactly what it held: the same kernel, slabs and pages, and a
// pool — where every segment of a returned store is — of the same size.
func TestRunStorageAllocBudget(t *testing.T) {
	cfg := Config{
		Tree:      uts.MustPreset("H-TINY").Params,
		Ranks:     1024,
		Placement: topology.OnePerNode,
		Selector:  victim.NewDistanceSkewed,
		Seed:      1,
	}
	resetRunStores()
	released := func() (*runStore, [2]any, []*worker, int) {
		runStores.mu.Lock()
		defer runStores.mu.Unlock()
		if len(runStores.free) != 1 {
			t.Fatalf("%d stores released, want 1", len(runStores.free))
		}
		st := runStores.free[0]
		var pages []*worker
		for _, ws := range st.work {
			for _, p := range ws.pages {
				pages = append(pages, &p[0])
			}
		}
		return st, [2]any{&st.ranks[0], &st.states[0]}, pages, storeBytes(st)
	}
	for i := 0; i < 2; i++ {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	st, slab, pages, bytes := released()
	if len(pages) == 0 || st.work[0].pool.Bytes() == 0 {
		t.Fatalf("the store holds %d worker pages and %d bytes of segments", len(pages), st.work[0].pool.Bytes())
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	kernel := st.kernel
	st2, slab2, pages2, bytes2 := released()
	if st2 != st || st2.kernel != kernel || slab2 != slab || !slices.Equal(pages2, pages) || bytes2 != bytes {
		t.Fatalf("the run allocated storage: store %p → %p, kernel %p → %p, slabs %p → %p, %d → %d pages, %d → %d bytes",
			st, st2, kernel, st2.kernel, slab, slab2, len(pages), len(pages2), bytes, bytes2)
	}
}

// TestReturnedStoreIsZeroed: a store handed back mid-run, with stacks
// holding nodes and quanta armed, keeps no pointer into the run — every
// rank and worker is zero, its kernel holds no event — and its stacks'
// segments are in the pool.
func TestReturnedStoreIsZeroed(t *testing.T) {
	cfg := goldenFig9Config().withDefaults()
	job, err := topology.NewJob(topology.KComputer(), cfg.Ranks, cfg.Placement)
	if err != nil {
		t.Fatal(err)
	}
	st := &runStore{kernel: sim.NewKernel()}
	k := st.kernel
	if _, err := newEngines(cfg, job, []*sim.Kernel{k}, nil, treeWork{}, st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20_000 && k.Step(); i++ {
	}
	ws, held := &st.work[0], 0
	for _, page := range ws.pages {
		for i := range page {
			held += page[i].stack.Len()
		}
	}
	pooled := ws.pool.Bytes()
	if held == 0 {
		t.Fatalf("the stacks hold %d nodes mid-run", held)
	}
	defer resetRunStores()
	putRunStore(st)
	if _, ok := k.PeekTime(); ok || k.Now() != 0 || k.Dispatched() != 0 {
		t.Fatalf("the kernel was not reset: an event queued %v, clock %v, %d dispatched", ok, k.Now(), k.Dispatched())
	}
	for i := range st.ranks {
		if !reflect.ValueOf(st.ranks[i]).IsZero() || st.states[i] != 0 {
			t.Fatalf("rank %d not zeroed: %+v, state %d", i, st.ranks[i], st.states[i])
		}
	}
	for _, page := range ws.pages {
		for i := range page {
			if !reflect.ValueOf(page[i]).IsZero() {
				t.Fatalf("a worker is not zeroed")
			}
		}
	}
	if ws.used != 0 || ws.pool.Bytes() <= pooled {
		t.Fatalf("%d workers still handed out; the pool went from %d to %d bytes", ws.used, pooled, ws.pool.Bytes())
	}
}

// TestRunStoresBounded pins what released stores may keep alive between
// runs: at most maxRunStores stores of at most runStoreBytes each, 128 MB
// in all, however many and however large the stores handed back; a
// store's kernel and recorder count towards its bytes.
func TestRunStoresBounded(t *testing.T) {
	if maxRunStores*runStoreBytes != 128<<20 {
		t.Fatalf("bounds are %d stores of %d bytes, want 128 MB in all", maxRunStores, runStoreBytes)
	}
	defer resetRunStores()
	resetRunStores()
	slab := func(ranks int) *runStore { return &runStore{ranks: make([]rank, ranks)} }
	atCap := runStoreBytes / int(unsafe.Sizeof(rank{}))
	withKernel := slab(atCap) // the slab alone is at the cap, the kernel tips it over
	withKernel.kernel = sim.NewKernel()
	withRecorder := slab(1 << 10)
	withRecorder.rec.Reset(1<<20, 0, false) // 2^20 ranks of transition scratch
	over := []*runStore{slab(1 << 19), withKernel, withRecorder}
	for i, st := range over {
		if storeBytes(st) <= runStoreBytes {
			t.Fatalf("store %d holds %d bytes, not over the %d bound", i, storeBytes(st), runStoreBytes)
		}
	}
	for _, st := range []*runStore{slab(1 << 10), slab(atCap), slab(1 << 15), over[0], slab(1 << 16), over[1], over[2],
		slab(1 << 10), slab(1 << 10), slab(1 << 10), slab(1 << 10), slab(1 << 10), slab(1 << 10)} {
		putRunStore(st)
		runStores.mu.Lock()
		n, sum := len(runStores.free), 0
		for _, st := range runStores.free {
			if b := storeBytes(st); b > runStoreBytes {
				t.Errorf("a store of %d bytes kept, bound %d", b, runStoreBytes)
			}
			sum += storeBytes(st)
		}
		runStores.mu.Unlock()
		if n > maxRunStores || sum > 128<<20 {
			t.Fatalf("%d stores of %d bytes kept, bound %d stores", n, sum, maxRunStores)
		}
	}
}
