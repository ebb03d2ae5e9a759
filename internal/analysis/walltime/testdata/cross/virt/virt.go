// Package virt is a virtual-time package that tries to launder a
// wall-clock read through a helper package: no time.Now
// appears lexically here, so only the interprocedural check can see
// the defect.
package virt

import (
	"time"

	"fix/clock"
)

func elapsed(start time.Time) time.Duration {
	return clock.Elapsed(start) // want `call to Elapsed transitively reads the wall clock`
}

// budget calls a clock-free helper of the same package: clean.
func budget() time.Duration {
	return clock.Budget(3 * time.Millisecond)
}
