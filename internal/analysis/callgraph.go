package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// CallGraph is a static reference graph over every function declared in
// the loaded packages. An edge caller→callee exists for every identifier
// in caller's body that resolves to a *types.Func: direct calls, method
// calls, and function values taken for later invocation (method values,
// callback registration). That conservative edge set is exactly what the
// interprocedural analyzers need — "can this function transitively reach
// time.Now" must treat a stored method value as reachable.
//
// Calls made inside a function literal are attributed to the enclosing
// named function (marked InLit), so reachability flows through closures:
// a callback built in New that calls Kernel.Now gives New an InLit edge
// to Now. Dynamic dispatch through interface values resolves to the
// interface's abstract method object, where traversal stops; analyzers
// that care about interface implementations name them explicitly (see
// hotalloc's root configuration).
type CallGraph struct {
	edges  map[*types.Func][]CallEdge
	rev    map[*types.Func][]*types.Func
	decls  map[*types.Func]*FuncDecl
	byName map[string]*types.Func
}

// CallEdge is one reference from a declared function to another function.
type CallEdge struct {
	Callee *types.Func
	// Pos is the referencing identifier's position in the caller.
	Pos token.Pos
	// InLit marks references made inside a function literal of the
	// caller rather than its body proper.
	InLit bool
}

// FuncDecl pairs a declared function's syntax with the package that
// holds it, so analyzers can inspect bodies of functions found through
// the graph.
type FuncDecl struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// BuildCallGraph constructs the reference graph over the given packages.
// Functions of packages imported only from export data have no body and
// therefore no outgoing edges; they appear as callees only.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		edges:  make(map[*types.Func][]CallEdge),
		rev:    make(map[*types.Func][]*types.Func),
		decls:  make(map[*types.Func]*FuncDecl),
		byName: make(map[string]*types.Func),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.decls[fn] = &FuncDecl{Decl: fd, Pkg: pkg}
				g.byName[fn.FullName()] = fn
				g.collect(pkg, fn, fd.Body, false)
			}
		}
	}
	seen := make(map[[2]*types.Func]bool)
	for caller, edges := range g.edges {
		for _, e := range edges {
			key := [2]*types.Func{e.Callee, caller}
			if !seen[key] {
				seen[key] = true
				g.rev[e.Callee] = append(g.rev[e.Callee], caller)
			}
		}
	}
	return g
}

// collect records an edge for every identifier under n that resolves to
// a function, descending into literals with the InLit mark set.
func (g *CallGraph) collect(pkg *Package, caller *types.Func, n ast.Node, inLit bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			g.collect(pkg, caller, x.Body, true)
			return false
		case *ast.Ident:
			if callee, ok := pkg.Info.Uses[x].(*types.Func); ok {
				g.edges[caller] = append(g.edges[caller], CallEdge{
					Callee: callee, Pos: x.Pos(), InLit: inLit,
				})
			}
		}
		return true
	})
}

// Lookup resolves a function by its types.Func.FullName — e.g.
// "distws/internal/comm.New" or "(*distws/internal/sim.Kernel).Cancel"
// — among the functions declared in the loaded packages.
func (g *CallGraph) Lookup(fullName string) *types.Func {
	return g.byName[fullName]
}

// Decl returns the declaration of a function declared in the loaded
// packages, or nil for imported/abstract functions.
func (g *CallGraph) Decl(fn *types.Func) *FuncDecl {
	return g.decls[fn]
}

// EachDecl calls f for every function declared in the loaded packages,
// in deterministic FullName order.
func (g *CallGraph) EachDecl(f func(*types.Func, *FuncDecl)) {
	names := make([]string, 0, len(g.byName))
	for name := range g.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn := g.byName[name]
		f(fn, g.decls[fn])
	}
}

// Edges returns fn's outgoing references.
func (g *CallGraph) Edges(fn *types.Func) []CallEdge {
	return g.edges[fn]
}

// ReachableFrom returns the set of functions transitively referenced
// from the roots, roots included.
func (g *CallGraph) ReachableFrom(roots ...*types.Func) map[*types.Func]bool {
	reach := make(map[*types.Func]bool)
	var queue []*types.Func
	for _, r := range roots {
		if r != nil && !reach[r] {
			reach[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, e := range g.edges[fn] {
			if !reach[e.Callee] {
				reach[e.Callee] = true
				queue = append(queue, e.Callee)
			}
		}
	}
	return reach
}

// Reachers returns every declared function from which some function
// satisfying pred is transitively reachable. Functions satisfying pred
// are not themselves included unless they also reach another such
// function — callers ask "does calling this wrapper touch the thing",
// not "is this the thing".
func (g *CallGraph) Reachers(pred func(*types.Func) bool) map[*types.Func]bool {
	marked := make(map[*types.Func]bool)
	var queue []*types.Func
	mark := func(fn *types.Func) {
		if !marked[fn] {
			marked[fn] = true
			queue = append(queue, fn)
		}
	}
	for callee, callers := range g.rev {
		if pred(callee) {
			for _, c := range callers {
				mark(c)
			}
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, c := range g.rev[fn] {
			mark(c)
		}
	}
	return marked
}

// Callee resolves a call's static callee, or nil.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
