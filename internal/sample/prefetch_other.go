//go:build !amd64

package sample

// prefetch does nothing on a GOARCH without a stub: a prefetch is a
// hint, and the draws are the same without it.
func prefetch(*uint64) {}
