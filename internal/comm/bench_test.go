package comm

import (
	"testing"

	"distws/internal/sim"
	"distws/internal/topology"
)

// BenchmarkCommSend measures the full life of a steal-request message
// that waits in the mailbox, as one to a working rank does: send,
// latency lookup, delivery dispatch, the pooled copy of its header, and
// the receiver's poll and free. The alloc gate (TestCommSendAllocFree)
// requires it to be allocation-free after warm-up.
func BenchmarkCommSend(b *testing.B) {
	kernel := sim.NewKernel()
	job, err := topology.NewJob(topology.KComputer(), 64, topology.OnePerNode)
	if err != nil {
		b.Fatal(err)
	}
	n := New(kernel, job, topology.DefaultLatency())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := i & 63
		to := (i * 7) & 63
		n.SendID(from, to, TagStealRequest, uint64(i), 16)
		if err := kernel.Run(); err != nil {
			b.Fatal(err)
		}
		for _, m := range n.Poll(to) {
			n.Free(m)
		}
	}
}

// TestCommSendAllocFree is the alloc gate for the messaging hot path:
// once the message pool, mailbox rings and poll scratch have reached
// steady-state capacity, a send/deliver/poll/free cycle must not
// allocate at all.
func TestCommSendAllocFree(t *testing.T) {
	kernel := sim.NewKernel()
	job, err := topology.NewJob(topology.KComputer(), 64, topology.OnePerNode)
	if err != nil {
		t.Fatal(err)
	}
	n := New(kernel, job, topology.DefaultLatency())
	i := 0
	body := func() {
		for k := 0; k < 100; k++ {
			from := i & 63
			to := (i * 7) & 63
			n.SendID(from, to, TagStealRequest, uint64(i), 16)
			i++
			if err := kernel.Run(); err != nil {
				t.Fatal(err)
			}
			for _, m := range n.Poll(to) {
				n.Free(m)
			}
		}
	}
	body() // reach steady-state capacity before measuring
	if got := testing.AllocsPerRun(20, body); got != 0 {
		t.Fatalf("comm send hot path allocates %.1f allocs/run, want 0", got)
	}
}
