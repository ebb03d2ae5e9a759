// Package clock is a helper outside the virtual-time set, as a
// command-line tool's timer would be: its own wall-clock reads are
// legitimate — but virtual-time callers must not launder reads through
// it.
package clock

import "time"

// Elapsed reads the host clock: fine here, poison for virtual callers.
func Elapsed(start time.Time) time.Duration { return time.Since(start) }

// Budget is clock-free: virtual callers may use it.
func Budget(d time.Duration) time.Duration { return 2 * d }
