// Package fixture impersonates a command-line tool outside the
// virtual-time set: measuring genuine elapsed time there is fine, so
// nothing may be reported.
package fixture

import "time"

func measure(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}
