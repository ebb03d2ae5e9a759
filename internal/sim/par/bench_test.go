package par

import (
	"fmt"
	"testing"

	"distws/internal/sim"
)

// BenchmarkShardedKernel measures the steady-state cost of the window
// machinery itself: every shard runs a self-perpetuating local event
// chain stepping one window per microsecond, and stages one cross-shard
// message to its ring successor per window, so each iteration pays for
// one full barrier crossing — worker wake-up on every shard, staging
// appends, the deterministic merge, injection — with the event arenas
// and staging queues at capacity. ns/op is the per-window overhead a
// sharded engine run adds on top of the sequential kernels; allocs/op
// must amortize to zero (the committed BENCH_sim.json baseline gates
// it). shards=1 exercises the degenerate single-worker barrier for
// comparison.
//
// Wall-clock scaling across the shards variants needs real cores: on a
// single-CPU runner the workers time-slice and the variants only show
// coordination overhead.
func BenchmarkShardedKernel(b *testing.B) {
	const step = sim.Microsecond
	noop := func(any) {}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sk := New(shards, sim.Duration(step))
			left := make([]int, shards) // owned by each shard's own chain
			ticks := make([]func(any), shards)
			for s := 0; s < shards; s++ {
				s := s
				k := sk.Kernel(s)
				ticks[s] = func(any) {
					if left[s] <= 0 {
						return
					}
					left[s]--
					now := k.Now()
					k.AtPayload(now.Add(step), ticks[s], nil, sim.Payload{})
					if next := (s + 1) % shards; next != s {
						sk.Stage(s, next, now.Add(step), now, s, noop, nil, sim.Payload{})
					}
				}
			}
			for s := 0; s < shards; s++ {
				left[s] = b.N
				k := sk.Kernel(s)
				k.AtPayload(0, ticks[s], nil, sim.Payload{})
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := sk.Run(Hooks{}); err != nil {
				b.Fatal(err)
			}
		})
	}
}
