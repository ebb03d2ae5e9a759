package sample

// prefetch asks the CPU to start loading the cache line that holds *p
// into every cache level (PREFETCHT0). It reads and writes nothing the
// program can observe.
//
//go:noescape
func prefetch(p *uint64)
