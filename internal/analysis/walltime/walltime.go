// Package walltime enforces the virtual-time invariant: the
// discrete-event simulator and everything built on it advance time only
// through the event kernel (sim.Kernel's clock), never by consulting
// the machine's clock. A wall-clock read on a simulated path couples
// results to host speed and scheduling, which breaks both
// reproducibility and the paper's virtual-time metrics (speedup and
// occupancy are ratios of simulated time).
//
// The analyzer reports any reference to a wall-clock or timer function
// of package time (Now, Since, Until, Sleep, After, AfterFunc, Tick,
// NewTicker, NewTimer) inside a configured virtual-time package.
// Pure-value identifiers — time.Duration, time.Millisecond and friends
// — are always allowed. The real shared-memory runtime (internal/rt)
// and the command-line tools measure genuine elapsed time and are
// allowlisted by the driver.
//
// Laundering through a helper is caught interprocedurally: a call from
// a virtual-time package to any function that transitively reaches a
// banned time function through the module call graph is flagged at the
// call site — unless the callee is itself a checked virtual-time
// function, whose own direct reference already carries the diagnostic.
package walltime

import (
	"go/ast"
	"go/types"

	"distws/internal/analysis"
)

// banned is the set of package time functions that read or wait on the
// host clock.
var banned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// New returns the analyzer. Packages matching a virtual prefix are
// checked unless they also match an allow prefix; every other package
// is ignored.
func New(virtual, allow []string) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "walltime",
		Doc:  "flags wall-clock reads (time.Now etc.) in virtual-time packages",
	}
	a.Run = func(pass *analysis.Pass) error {
		if !analysis.PathMatches(pass.ImportPath, virtual) ||
			analysis.PathMatches(pass.ImportPath, allow) {
			return nil
		}
		for id, obj := range pass.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				continue
			}
			if banned[fn.Name()] {
				pass.Reportf(id.Pos(),
					"wall-clock time.%s in virtual-time package %s: simulated time must come from the event kernel",
					fn.Name(), pass.ImportPath)
			}
		}
		// Interprocedural: calls that launder a wall-clock read through
		// a helper outside the checked set.
		reachers := pass.Graph.Reachers(func(fn *types.Func) bool {
			return fn.Pkg() != nil && fn.Pkg().Path() == "time" && banned[fn.Name()]
		})
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := analysis.Callee(pass.Info, call)
				if fn == nil || !reachers[fn] {
					return true
				}
				if p := fn.Pkg(); p != nil &&
					analysis.PathMatches(p.Path(), virtual) && !analysis.PathMatches(p.Path(), allow) {
					// The callee is itself checked: its own direct
					// reference carries the diagnostic.
					return true
				}
				pass.Reportf(call.Pos(),
					"call to %s transitively reads the wall clock (time.Now and friends) in virtual-time package %s: simulated time must come from the event kernel",
					fn.Name(), pass.ImportPath)
				return true
			})
		}
		return nil
	}
	return a
}
