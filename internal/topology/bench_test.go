package topology

import (
	"testing"

	"distws/internal/sim"
)

// BenchmarkLatencyLookup measures the per-send latency computation for
// steal-request-sized messages across a 512-rank job — the lookup the
// network performs for every simulated message.
func BenchmarkLatencyLookup(b *testing.B) {
	job, err := NewJob(KComputer(), 512, OnePerNode)
	if err != nil {
		b.Fatal(err)
	}
	model := SendModel(DefaultLatency(), job)
	var sink sim.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := i & 511
		to := (i * 37) & 511
		sink += model.Latency(job, from, to, 16)
	}
	_ = sink
}

// BenchmarkNewJob measures placing the benchmark's top rung, and its
// bytes per op are the job's footprint: a per-rank coordinate array
// creeping back into Job shows up here before anywhere else.
func BenchmarkNewJob(b *testing.B) {
	b.Run("ranks=8192", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewJob(KComputer(), 8192, OnePerNode); err != nil {
				b.Fatal(err)
			}
		}
	})
}
