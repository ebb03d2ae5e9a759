// Package atomicmix enforces a single access discipline for shared
// words: a word touched atomically is declared with one of
// sync/atomic's types (atomic.Int64, atomic.Uint64, atomic.Pointer,
// ...) and touched only through its methods. A word handed to a
// function-style op such as atomic.AddInt64(&x, 1) is an ordinary
// variable that a plain read or write can also reach, and a plain load
// racing an atomic store is a data race the Go memory model gives no
// guarantees about. The tree's one concurrently written store is
// internal/obs's metrics registry, which the shard engines of a
// sharded run share; its words are typed atomics.
//
// The analyzer reports every use of a package-level sync/atomic
// function (one without a receiver): with typed atomics as the only
// allowed form, a mixed access cannot be written at all.
package atomicmix

import (
	"go/types"

	"distws/internal/analysis"
)

// New returns the analyzer. It has no configuration: the invariant is
// repo-wide.
func New() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "atomicmix",
		Doc:  "flags function-style sync/atomic ops; shared words must be typed atomics",
	}
	a.Run = func(pass *analysis.Pass) error {
		for id, obj := range pass.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" ||
				fn.Type().(*types.Signature).Recv() != nil {
				continue
			}
			pass.Reportf(id.Pos(),
				"atomic.%s on a plain variable: the same word can be read or written plainly elsewhere, a data race; declare it as a typed atomic (atomic.Int64, atomic.Pointer, ...) and use its methods",
				fn.Name())
		}
		return nil
	}
	return a
}
