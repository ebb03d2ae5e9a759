package par

import (
	"errors"
	"testing"

	"distws/internal/sim"
)

const lat = 10 * sim.Microsecond // cross-shard latency used by the test systems

// pingPong wires `shards` kernels into a ring: each shard's handler
// counts the hit and forwards to the next shard after the cross-shard
// latency, until hops messages have been delivered in total.
type pingPong struct {
	sk    *ShardedKernel
	hits  []int
	log   []sim.Time
	left  int
	order []int // shard visit order
}

func newPingPong(shards, hops int) *pingPong {
	p := &pingPong{
		sk:   New(shards, lat),
		hits: make([]int, shards),
		left: hops,
	}
	return p
}

func (p *pingPong) handler(shard int) func(any) {
	return func(any) {
		p.hits[shard]++
		p.log = append(p.log, p.sk.Kernel(shard).Now())
		p.order = append(p.order, shard)
		p.left--
		if p.left <= 0 {
			return
		}
		next := (shard + 1) % p.sk.Shards()
		now := p.sk.Kernel(shard).Now()
		p.sk.Stage(shard, next, now.Add(lat), now, shard, p.handler(next), nil, sim.Payload{})
	}
}

// windowCount tallies what Hooks.OnWindow reports of a run: windows,
// serialized windows and staged messages merged at barriers.
type windowCount struct{ windows, serialized, staged int }

// count returns h with an OnWindow that tallies into c.
func (c *windowCount) count(h Hooks) Hooks {
	h.OnWindow = func(info WindowInfo) {
		c.windows++
		if info.Serialized {
			c.serialized++
		}
		c.staged += info.Merged
	}
	return h
}

func TestPingPongRing(t *testing.T) {
	const hops = 50
	for _, shards := range []int{2, 3, 4} {
		p := newPingPong(shards, hops)
		// Kick off from shard 0 at t=0 via a local event that stages the
		// first cross-shard hop.
		p.sk.Kernel(0).At(0, func() { p.handler(0)(nil) })
		var st windowCount
		if err := p.sk.Run(st.count(Hooks{})); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, h := range p.hits {
			total += h
		}
		if total != hops {
			t.Fatalf("shards=%d: %d deliveries, want %d", shards, total, hops)
		}
		for i, tm := range p.log {
			if want := sim.Time(i) * sim.Time(lat); tm != want {
				t.Fatalf("shards=%d: hop %d at %v, want %v", shards, i, tm, want)
			}
		}
		if st.windows == 0 || st.staged != hops-1 {
			t.Fatalf("shards=%d: stats %+v", shards, st)
		}
	}
}

// TestSerializedMatchesParallel runs the same ring once with every
// window parallel and once with every window serialized; the visit
// sequence and virtual times must be identical.
func TestSerializedMatchesParallel(t *testing.T) {
	run := func(serialize bool) (*pingPong, windowCount) {
		p := newPingPong(4, 61)
		p.sk.Kernel(0).At(0, func() { p.handler(0)(nil) })
		hooks := Hooks{}
		if serialize {
			hooks.Serialize = func(_, _ sim.Time) bool { return true }
		}
		var c windowCount
		if err := p.sk.Run(c.count(hooks)); err != nil {
			t.Fatal(err)
		}
		return p, c
	}
	par, parCount := run(false)
	ser, serCount := run(true)
	if len(par.log) != len(ser.log) {
		t.Fatalf("parallel %d hops, serialized %d", len(par.log), len(ser.log))
	}
	for i := range par.log {
		if par.log[i] != ser.log[i] || par.order[i] != ser.order[i] {
			t.Fatalf("hop %d: parallel (%v, shard %d), serialized (%v, shard %d)",
				i, par.log[i], par.order[i], ser.log[i], ser.order[i])
		}
	}
	if serCount.serialized != serCount.windows {
		t.Fatalf("serialized run windows %+v", serCount)
	}
	if parCount.serialized != 0 {
		t.Fatalf("parallel run windows %+v", parCount)
	}
}

// TestMergeOrderDeterministic has every shard stage a burst of messages
// to shard 0 with the same delivery instant; the delivery order must
// follow the (when, sent, sender, seq) key — i.e. sender rank order,
// then per-sender staging order — no matter how the window's goroutines
// interleave on the wall clock.
func TestMergeOrderDeterministic(t *testing.T) {
	const shards = 8
	for trial := 0; trial < 20; trial++ {
		sk := New(shards, lat)
		var got []int
		recorder := func(arg any) {
			v := arg.(int)
			if p := sk.Kernel(0).Payload(); p != (sim.Payload{A: uint64(v), B: ^uint64(v)}) {
				t.Errorf("message %d delivered with payload %v", v, p)
			}
			got = append(got, v)
		}
		for s := 0; s < shards; s++ {
			s := s
			sk.Kernel(s).At(5, func() {
				now := sk.Kernel(s).Now()
				// Two messages per shard: same sender ⇒ staging order must
				// be preserved, and each keeps its payload.
				for _, v := range []int{2 * s, 2*s + 1} {
					sk.Stage(s, 0, now.Add(lat), now, s, recorder, v, sim.Payload{A: uint64(v), B: ^uint64(v)})
				}
			})
		}
		if err := sk.Run(Hooks{}); err != nil {
			t.Fatal(err)
		}
		if len(got) != 2*shards {
			t.Fatalf("delivered %d, want %d", len(got), 2*shards)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("trial %d: delivery order %v", trial, got)
			}
		}
	}
}

// TestWindowBarrierHoldsDeliveries checks conservatism: a message
// staged during a window is not visible to the destination shard until
// after the barrier, even if the destination's queue is otherwise
// empty.
func TestWindowBarrierHoldsDeliveries(t *testing.T) {
	sk := New(2, lat)
	var deliveredAt sim.Time
	sk.Kernel(0).At(3, func() {
		now := sk.Kernel(0).Now()
		sk.Stage(0, 1, now.Add(lat), now, 0, func(any) {
			deliveredAt = sk.Kernel(1).Now()
		}, nil, sim.Payload{})
	})
	if err := sk.Run(Hooks{}); err != nil {
		t.Fatal(err)
	}
	if deliveredAt != 3+sim.Time(lat) {
		t.Fatalf("delivered at %v, want %v", deliveredAt, 3+sim.Time(lat))
	}
}

func TestLookaheadViolationPanics(t *testing.T) {
	sk := New(2, lat)
	sk.Kernel(0).At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("staging a sub-lookahead delivery did not panic")
			}
			panic("stop the run") // unwind the worker; Run re-panics
		}()
		sk.Stage(0, 1, 1, 0, 0, func(any) {}, nil, sim.Payload{})
	})
	defer func() { recover() }()
	sk.Run(Hooks{})
	t.Error("Run returned normally after a lookahead violation")
}

// TestWorkerPanicPropagates checks a panic inside a shard callback
// reaches the Run caller instead of killing the process from a worker
// goroutine.
func TestWorkerPanicPropagates(t *testing.T) {
	sk := New(2, lat)
	sk.Kernel(1).At(1, func() { panic("boom") })
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	sk.Run(Hooks{})
	t.Fatal("Run returned without panicking")
}

func TestErrorPropagation(t *testing.T) {
	sk := New(2, lat)
	sk.Kernel(1).SetTimeLimit(5)
	sk.Kernel(1).At(10, func() {})
	if err := sk.Run(Hooks{}); !errors.Is(err, sim.ErrTimeLimit) {
		t.Fatalf("Run = %v, want ErrTimeLimit", err)
	}
}

func TestNewValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { New(0, lat) },
		func() { New(2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid New did not panic")
				}
			}()
			bad()
		}()
	}
}

// TestStageAllocFree gates the steady-state allocation behavior of the
// staging + barrier-merge machinery: once the queues and the merge
// scratch have grown to capacity, a stage → inject cycle performs no
// allocations.
func TestStageAllocFree(t *testing.T) {
	sk := New(4, lat)
	noop := func(any) {}
	cycle := func() {
		for s := 0; s < 4; s++ {
			now := sk.Kernel((s + 1) % 4).Now()
			for i := 0; i < 8; i++ {
				sk.Stage(s, (s+1)%4, now.Add(lat), 0, s, noop, nil, sim.Payload{})
			}
		}
		sk.injectStaged()
		for s := 0; s < 4; s++ {
			if err := sk.Kernel(s).Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // warm up queue and scratch capacity
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Fatalf("stage+merge cycle allocates %v times per window, want 0", allocs)
	}
}
