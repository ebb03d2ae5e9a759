// Package hotalloc guards the simulator's 0-alloc contract. The
// benchmark gate (make bench-gate) proves the hot packages allocate
// zero bytes per simulated event, but only for the configurations the
// benchmarks happen to exercise; a new allocation on an unbenchmarked
// branch ships silently and shows up later as GC pressure in the exact
// experiments the paper's figures depend on. This analyzer makes the
// contract structural: every function reachable from a configured hot
// root must avoid the four allocation shapes that creep into Go hot
// paths —
//
//   - fmt calls: every Sprintf/Errorf formats into a fresh string;
//   - capturing function literals: each construction heap-allocates
//     the capture record;
//   - interface boxing: passing a non-pointer-shaped concrete value
//     (int, struct, slice, string) as an interface argument allocates
//     the box; pointers, maps, chans and funcs are exempt because the
//     word fits the interface data slot;
//   - map iteration: order is nondeterministic, which the determinism
//     contract forbids on the hot path, and the hash walk is the
//     slowest way to visit a dense rank set.
//
// Reachability flows through the module call graph, including closure
// bodies. panic arguments are exempt (a panicking path is already
// dead), as are String/Error methods (cold diagnostic rendering) —
// traversal does not descend through them either.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"distws/internal/analysis"
)

// New returns the analyzer. roots lists the hot entry points as
// types.Func FullNames (e.g. "(*distws/internal/sim.Kernel).Run");
// packages gates which packages' declarations are checked.
func New(roots []string, packages []string) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "hotalloc",
		Doc:  "flags allocation shapes (fmt, capturing closures, boxing, map ranges) reachable from 0-alloc hot roots",
	}
	a.Run = func(pass *analysis.Pass) error {
		if !analysis.PathMatches(pass.ImportPath, packages) {
			return nil
		}
		var rootFns []*types.Func
		for _, name := range roots {
			fn := pass.Graph.Lookup(name)
			if fn == nil {
				return fmt.Errorf("hotalloc: root %q does not resolve to a declared function", name)
			}
			rootFns = append(rootFns, fn)
		}
		hot := hotReachable(pass.Graph, rootFns)
		c := &checker{pass: pass}
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
				if !ok || !hot[fn] || isStringer(fn) {
					continue
				}
				c.checkBody(fd.Body)
			}
		}
		return nil
	}
	return a
}

// hotReachable walks the call graph forward from the roots, but does
// not descend through String/Error methods: what only diagnostic
// rendering reaches is cold by definition.
func hotReachable(g *analysis.CallGraph, roots []*types.Func) map[*types.Func]bool {
	reach := make(map[*types.Func]bool)
	var queue []*types.Func
	for _, r := range roots {
		if !reach[r] {
			reach[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if isStringer(fn) {
			continue
		}
		for _, e := range g.Edges(fn) {
			if !reach[e.Callee] {
				reach[e.Callee] = true
				queue = append(queue, e.Callee)
			}
		}
	}
	return reach
}

// isStringer reports whether fn is a String or Error rendering method.
func isStringer(fn *types.Func) bool {
	if fn.Name() != "String" && fn.Name() != "Error" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && sig.Params().Len() == 0
}

type checker struct {
	pass *analysis.Pass
}

// checkBody walks one hot function body for the four allocation shapes.
func (c *checker) checkBody(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanic(c.pass.Info, n) {
				return false // a panicking path is already dead
			}
			return c.checkCall(n)
		case *ast.RangeStmt:
			if tv, ok := c.pass.Info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					c.pass.Reportf(n.Pos(),
						"hot path ranges over a map: iteration order is nondeterministic and the hash walk is the slowest way to visit the set; use a dense slice")
				}
			}
		case *ast.FuncLit:
			if caps := c.litCaptures(n); len(caps) > 0 {
				c.pass.Reportf(n.Pos(),
					"hot path constructs a capturing closure (captures %s): each construction heap-allocates the capture record; hoist it to setup or pass state explicitly",
					caps[0])
			}
		}
		return true
	})
}

// checkCall flags fmt calls and interface-boxing arguments; the return
// value tells the walk whether to descend into the call's children.
func (c *checker) checkCall(call *ast.CallExpr) bool {
	if fn := analysis.Callee(c.pass.Info, call); fn != nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			c.pass.Reportf(call.Pos(),
				"hot path calls fmt.%s: formatting allocates on every call; preformat in setup or use the trace ring", fn.Name())
			return true // boxing into fmt's variadic is subsumed by this report
		}
	}
	tv, ok := c.pass.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		// A conversion T(x): boxing only if T is an interface.
		if ok && len(call.Args) == 1 {
			if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
				c.checkBox(call.Args[0])
			}
		}
		return true
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return true // builtin or invalid
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i == params.Len()-1 && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue // arg... spread: already a slice, no per-element box
		}
		if _, isIface := pt.Underlying().(*types.Interface); isIface {
			c.checkBox(arg)
		}
	}
	return true
}

// checkBox reports when arg's concrete value cannot ride in the
// interface data word and therefore allocates at the conversion.
func (c *checker) checkBox(arg ast.Expr) {
	tv, ok := c.pass.Info.Types[arg]
	if !ok || tv.Type == nil {
		return
	}
	t := tv.Type
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Interface:
		return // already boxed
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: fits the data word
	}
	c.pass.Reportf(arg.Pos(),
		"hot path boxes %s into an interface argument: the conversion allocates; take a pointer or a concrete parameter",
		types.TypeString(t, types.RelativeTo(c.pass.Pkg)))
}

// litCaptures returns the names of variables a function literal
// captures from enclosing scopes (package-level state is static and
// does not count).
func (c *checker) litCaptures(lit *ast.FuncLit) []string {
	var caps []string
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := c.pass.Info.Uses[id].(*types.Var)
		if !ok || seen[obj] || obj.IsField() {
			return true
		}
		if obj.Pkg() == nil || obj.Parent() == obj.Pkg().Scope() {
			return true
		}
		if obj.Pos() < lit.Pos() {
			seen[obj] = true
			caps = append(caps, obj.Name())
		}
		return true
	})
	return caps
}

// isPanic reports whether call is the panic builtin.
func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
