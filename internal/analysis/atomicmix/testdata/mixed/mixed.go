// Package fixture exercises the atomicmix analyzer: every
// function-style sync/atomic op must be reported, whether or not the
// word is also accessed plainly; typed atomics and plain-only words
// must stay silent.
package fixture

import "sync/atomic"

type counters struct {
	mixed    int64
	allAtom  uint64
	allPlain int64
	typed    atomic.Int64
	ptr      atomic.Pointer[counters]
}

var globalMixed int64

func atomicSide(c *counters) {
	atomic.AddInt64(&c.mixed, 1)     // want `atomic\.AddInt64`
	atomic.AddUint64(&c.allAtom, 1)  // want `atomic\.AddUint64`
	atomic.AddInt64(&globalMixed, 1) // want `atomic\.AddInt64`
	c.typed.Add(1)
	c.ptr.Store(c)
}

func plainSide(c *counters) int64 {
	n := c.mixed
	c.mixed = 0
	c.allPlain++
	return n + globalMixed
}

func consistentReads(c *counters) uint64 {
	return atomic.LoadUint64(&c.allAtom) + uint64(c.typed.Load()) // want `atomic\.LoadUint64`
}

func methodValue() func(*int64, int64) int64 {
	return atomic.AddInt64 // want `atomic\.AddInt64`
}
