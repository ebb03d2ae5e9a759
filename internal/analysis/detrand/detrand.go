// Package detrand enforces the repository's central determinism
// invariant: every random draw flows through internal/rng's explicit,
// seeded generators. A single math/rand call — global state seeded
// from who-knows-where — or a generator seeded from the wall clock
// makes a simulation no longer a pure function of its configured seed,
// silently invalidating every result in EXPERIMENTS.md.
//
// The analyzer reports:
//
//   - any reference to math/rand or math/rand/v2, in every package
//     (internal/rng's generators are hand-rolled, so even the generator
//     package needs no exemption);
//   - any generator constructor — rng.New*, rand.New* — whose seed
//     argument derives from time.Now, in every package. The derivation
//     is interprocedural: a seed computed by calling a helper that
//     transitively reaches time.Now through the module call graph is
//     reported at the constructor, so hiding the clock read one or two
//     functions away does not launder it.
package detrand

import (
	"go/ast"
	"go/token"
	"go/types"

	"distws/internal/analysis"
)

// rngPath is the one blessed generator package.
const rngPath = "distws/internal/rng"

// New returns the analyzer. Neither check has exemptions.
func New() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "detrand",
		Doc:  "flags math/rand use and time-seeded RNG constructors",
	}
	a.Run = func(pass *analysis.Pass) error {
		for id, obj := range pass.Info.Uses {
			if p := objPkgPath(obj); p == "math/rand" || p == "math/rand/v2" {
				pass.Reportf(id.Pos(),
					"reference to %s.%s: simulator randomness must flow through internal/rng's seeded streams",
					p, obj.Name())
			}
		}
		// Functions that transitively reach time.Now: a seed built by
		// calling one of these is wall-clock-derived even though no
		// time.Now appears lexically in the argument.
		reachesNow := pass.Graph.Reachers(func(fn *types.Func) bool {
			return fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Now"
		})
		// Nested constructors (rand.New(rand.NewSource(...))) would
		// report the same time.Now twice; dedupe by position.
		reported := make(map[token.Pos]bool)
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !isRNGConstructor(pass, call) {
					return true
				}
				for _, arg := range call.Args {
					if pos, ok := usesWallClock(pass, reachesNow, arg); ok && !reported[pos] {
						reported[pos] = true
						pass.Reportf(pos,
							"time-seeded RNG: seed derives from time.Now, so runs are not reproducible; derive seeds from configuration")
						break
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

func objPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isRNGConstructor reports whether call invokes a New* function of
// internal/rng, math/rand or math/rand/v2.
func isRNGConstructor(pass *analysis.Pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	obj, ok := pass.Info.Uses[id].(*types.Func)
	if !ok {
		return false
	}
	switch objPkgPath(obj) {
	case rngPath, "math/rand", "math/rand/v2":
	default:
		return false
	}
	name := obj.Name()
	return name == "New" || (len(name) > 3 && name[:3] == "New")
}

// usesWallClock reports whether the expression tree references
// time.Now — directly, through a conversion chain such as
// uint64(time.Now().UnixNano()), or by calling a function that
// transitively reaches time.Now (reachesNow, from the call graph).
func usesWallClock(pass *analysis.Pass, reachesNow map[*types.Func]bool, e ast.Expr) (pos token.Pos, found bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		if objPkgPath(obj) == "time" && obj.Name() == "Now" {
			pos, found = id.Pos(), true
			return false
		}
		if fn, ok := obj.(*types.Func); ok && reachesNow[fn] {
			pos, found = id.Pos(), true
			return false
		}
		return true
	})
	return pos, found
}
