// Package poolcheck enforces the message-pool ownership discipline of
// internal/comm: a handler that drains its mailbox owns every message
// it receives and must resolve that ownership exactly once on every
// path — return the message to the pool with Network.Free, hand it to a
// consuming helper (one that frees it, like the engine's deadLetter),
// or transfer it onward (append it to a deferred batch). A path that
// drops an owned message leaks pool capacity; freeing twice corrupts
// the free list; touching a message after Free reads recycled memory.
// None of those fail loudly — Free is optional by API contract, so the
// steady-state pool just quietly degrades — which is exactly why the
// rule is machine-checked before the kernel refactor multiplies the
// handler paths.
//
// Ownership starts at two draining shapes:
//
//	for _, m := range net.Poll(r) { ... }     // mailbox drain
//	msgs := h.deferred; for _, m := range msgs // deferred-batch drain
//
// (a range over a local []*comm.Message variable: the runtime's own
// handlers drain only mailboxes today, the fixtures keep a batch too).
// The consumer set is seeded with Network.Free and grown
// interprocedurally through the call graph: a function that passes its
// *Message parameter to a consumer is itself a consumer. The walker is
// path-sensitive over if/switch and flags three defects: leak (an
// iteration can end with the message still owned), double free, and use
// after free.
//
// A work reply's loot has an owner of its own. The array behind m.Nodes
// is the sender's until SendNodes, the message's in flight and the
// draining handler's from then on; Free never reuses it (a sender may
// put one array in many messages) and an interposer's duplicate carries
// a copy. A handler that recycles loot buffers — core's putLoot — copies
// the nodes out, hands the buffer back and clears m.Nodes before it
// frees the message, and m.Nodes, or any slice of it, is not retained
// past that hand-back: the next reply is packed into the same array.
// The walker tracks the message, not the slice, so this half of the
// discipline is stated here and in the lootHandBack fixture rather than
// checked.
package poolcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"distws/internal/analysis"
)

// New returns the analyzer. msgPath is the import path of the package
// defining Message/Network (internal/comm in production); packages
// lists the handler packages whose drains are checked.
func New(msgPath string, packages []string) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "poolcheck",
		Doc:  "checks pooled comm.Message ownership: freed exactly once on every handler path",
	}
	a.Run = func(pass *analysis.Pass) error {
		if !analysis.PathMatches(pass.ImportPath, packages) {
			return nil
		}
		c := &checker{pass: pass, msgPath: msgPath}
		c.consumers = c.buildConsumers()
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
					c.checkFunc(fd.Body)
					return false
				}
				return true
			})
		}
		return nil
	}
	return a
}

type checker struct {
	pass      *analysis.Pass
	msgPath   string
	consumers map[*types.Func]bool
}

// isMessagePtr reports whether t is *comm.Message.
func (c *checker) isMessagePtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == c.msgPath && obj.Name() == "Message"
}

// isNetworkMethod reports whether fn is comm.Network's method of the
// given name.
func (c *checker) isNetworkMethod(fn *types.Func, name string) bool {
	if fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != c.msgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// buildConsumers seeds the consumer set with Network.Free and grows it
// to a fixpoint over the loaded declarations: a function that passes a
// *Message parameter to a known consumer consumes that parameter.
func (c *checker) buildConsumers() map[*types.Func]bool {
	consumers := make(map[*types.Func]bool)
	isConsumer := func(fn *types.Func) bool {
		return consumers[fn] || c.isNetworkMethod(fn, "Free") || c.isNetworkMethod(fn, "send")
	}
	g := c.pass.Graph
	for changed := true; changed; {
		changed = false
		for _, fn := range declaredFuncs(g) {
			if consumers[fn] {
				continue
			}
			d := g.Decl(fn)
			if d == nil || !c.passesParamToConsumer(d, isConsumer) {
				continue
			}
			consumers[fn] = true
			changed = true
		}
	}
	return consumers
}

// declaredFuncs enumerates every function with a body in the load.
func declaredFuncs(g *analysis.CallGraph) []*types.Func {
	var fns []*types.Func
	g.EachDecl(func(fn *types.Func, _ *analysis.FuncDecl) { fns = append(fns, fn) })
	return fns
}

// passesParamToConsumer reports whether the function forwards one of
// its *Message parameters to a consumer call.
func (c *checker) passesParamToConsumer(d *analysis.FuncDecl, isConsumer func(*types.Func) bool) bool {
	params := make(map[types.Object]bool)
	if d.Decl.Type.Params != nil {
		for _, field := range d.Decl.Type.Params.List {
			for _, name := range field.Names {
				obj := d.Pkg.Info.Defs[name]
				if obj != nil && c.isMessagePtr(obj.Type()) {
					params[obj] = true
				}
			}
		}
	}
	if len(params) == 0 {
		return false
	}
	found := false
	ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		callee := analysis.Callee(d.Pkg.Info, call)
		if callee == nil || !isConsumer(callee) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && params[d.Pkg.Info.Uses[id]] {
				found = true
			}
		}
		return true
	})
	return found
}

// --- ownership walk ----------------------------------------------------

// ownState is the lattice of what may have happened to the tracked
// message on some path, as a bitmask.
type ownState uint8

const (
	owned   ownState = 1 << iota // still this handler's responsibility
	freed                        // returned to the pool
	escaped                      // ownership transferred (stored/appended/returned)
)

// checkFunc finds the owning drains in one function body and walks each.
func (c *checker) checkFunc(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			c.checkFunc(lit.Body)
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		v := c.owningRangeVar(rs, body)
		if v == nil {
			return true
		}
		w := &walker{c: c, v: v}
		out, falls := w.stmts(rs.Body.List, owned, ctx{})
		if falls && out&owned != 0 {
			c.pass.Reportf(rs.Pos(),
				"message %s may leak: an iteration can end without Network.Free (or a consuming transfer) on every path", v.Name())
		}
		return true
	})
}

// owningRangeVar returns the loop variable object when the range
// statement is an owning drain: ranging over a Network.Poll call or
// over a local []*Message batch variable. body is the enclosing
// function (or literal) body, used to tell body-local batch variables
// from parameters.
func (c *checker) owningRangeVar(rs *ast.RangeStmt, body *ast.BlockStmt) *types.Var {
	if rs.Tok != token.DEFINE || rs.Value == nil {
		return nil
	}
	id, ok := rs.Value.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	v, ok := c.pass.Info.Defs[id].(*types.Var)
	if !ok || !c.isMessagePtr(v.Type()) {
		return nil
	}
	switch x := ast.Unparen(rs.X).(type) {
	case *ast.CallExpr:
		if fn := analysis.Callee(c.pass.Info, x); fn != nil && c.isNetworkMethod(fn, "Poll") {
			return v
		}
	case *ast.Ident:
		// A local batch variable (the deferred-drain idiom: the field is
		// swapped into a local and truncated before the walk). Fields,
		// package-level vars and parameters stay untracked: iterating
		// them is borrowing. A body-local's declaration sits after the
		// opening brace; a parameter's sits in the signature before it.
		obj, ok := c.pass.Info.Uses[x].(*types.Var)
		if ok && !obj.IsField() && obj.Parent() != obj.Pkg().Scope() && obj.Pos() > body.Pos() {
			if s, ok := obj.Type().(*types.Slice); ok && c.isMessagePtr(s.Elem()) {
				return v
			}
		}
	}
	return nil
}

// ctx tracks what break/continue refer to while walking nested
// statements: inside a nested loop they are local; inside a switch a
// bare break only exits the switch.
type ctx struct {
	loopDepth   int
	switchDepth int
}

type walker struct {
	c *checker
	v *types.Var
	// reported dedupes per-position reports.
	reported map[token.Pos]bool
}

func (w *walker) report(pos token.Pos, format string, args ...any) {
	if w.reported == nil {
		w.reported = make(map[token.Pos]bool)
	}
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	w.c.pass.Reportf(pos, format, args...)
}

// stmts walks a statement list. It returns the joined state on normal
// fall-through and whether fall-through is possible.
func (w *walker) stmts(list []ast.Stmt, in ownState, cx ctx) (ownState, bool) {
	st := in
	for _, s := range list {
		var falls bool
		st, falls = w.stmt(s, st, cx)
		if !falls {
			return st, false
		}
	}
	return st, true
}

// leakCheck reports a leak when an iteration-ending edge can still own
// the message.
func (w *walker) leakCheck(pos token.Pos, st ownState, what string) {
	if st&owned != 0 {
		w.report(pos, "message %s may leak: %s while still owned; free or transfer it first", w.v.Name(), what)
	}
}

func (w *walker) stmt(s ast.Stmt, in ownState, cx ctx) (ownState, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return w.expr(s.X, in), true
	case *ast.AssignStmt:
		st := in
		// A whole-RHS transfer (x = m, s.f = m, x[i] = m) moves ownership.
		for i, rhs := range s.Rhs {
			st = w.expr(rhs, st)
			if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && w.isVar(id) {
				if i < len(s.Lhs) && !isBlank(s.Lhs[i]) {
					st = transfer(st)
				}
			}
		}
		for _, lhs := range s.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && w.isVar(id) {
				// Rebinding the loop variable abandons tracking of the old
				// message; treat the old value as transferred.
				st = transfer(st)
				continue
			}
			st = w.expr(lhs, st)
		}
		return st, true
	case *ast.DeclStmt:
		st := in
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						st = w.expr(val, st)
						if id, ok := ast.Unparen(val).(*ast.Ident); ok && w.isVar(id) {
							st = transfer(st)
						}
					}
				}
			}
		}
		return st, true
	case *ast.ReturnStmt:
		st := in
		for _, r := range s.Results {
			st = w.expr(r, st)
			if id, ok := ast.Unparen(r).(*ast.Ident); ok && w.isVar(id) {
				st = transfer(st)
			}
		}
		w.leakCheck(s.Pos(), st, "return exits the drain")
		return st, false
	case *ast.BranchStmt:
		switch s.Tok {
		case token.CONTINUE:
			if cx.loopDepth == 0 {
				w.leakCheck(s.Pos(), in, "continue ends the iteration")
			}
			return in, false
		case token.BREAK:
			if cx.switchDepth > 0 {
				// Exits the enclosing switch only; rejoins the iteration.
				return in, true
			}
			if cx.loopDepth == 0 {
				w.leakCheck(s.Pos(), in, "break abandons the drain")
			}
			return in, false
		case token.GOTO:
			w.leakCheck(s.Pos(), in, "goto leaves the iteration")
			return in, false
		case token.FALLTHROUGH:
			return in, true
		}
		return in, true
	case *ast.IfStmt:
		st := in
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st, cx)
		}
		st = w.expr(s.Cond, st)
		thenSt, thenFalls := w.stmts(s.Body.List, st, cx)
		elseSt, elseFalls := st, true
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseSt, elseFalls = w.stmts(e.List, st, cx)
			default:
				elseSt, elseFalls = w.stmt(s.Else, st, cx)
			}
		}
		switch {
		case thenFalls && elseFalls:
			return thenSt | elseSt, true
		case thenFalls:
			return thenSt, true
		case elseFalls:
			return elseSt, true
		}
		return thenSt | elseSt, false
	case *ast.SwitchStmt:
		st := in
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st, cx)
		}
		if s.Tag != nil {
			st = w.expr(s.Tag, st)
		}
		return w.caseClauses(s.Body.List, st, cx)
	case *ast.TypeSwitchStmt:
		st := in
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st, cx)
		}
		st, _ = w.stmt(s.Assign, st, cx)
		return w.caseClauses(s.Body.List, st, cx)
	case *ast.BlockStmt:
		return w.stmts(s.List, in, cx)
	case *ast.ForStmt:
		st := in
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st, cx)
		}
		if s.Cond != nil {
			st = w.expr(s.Cond, st)
		}
		inner := cx
		inner.loopDepth++
		inner.switchDepth = 0
		bodySt, falls := w.stmts(s.Body.List, st, inner)
		if falls && s.Post != nil {
			bodySt, _ = w.stmt(s.Post, bodySt, inner)
		}
		return st | bodySt, true
	case *ast.RangeStmt:
		st := w.expr(s.X, in)
		inner := cx
		inner.loopDepth++
		inner.switchDepth = 0
		bodySt, _ := w.stmts(s.Body.List, st, inner)
		return st | bodySt, true
	case *ast.DeferStmt:
		// A deferred Free runs at function exit, not iteration end; it
		// neither discharges nor duplicates this iteration's obligation
		// reliably, so treat its uses like reads only.
		return w.exprUsesOnly(s.Call, in), true
	case *ast.GoStmt:
		return w.exprUsesOnly(s.Call, in), true
	case *ast.IncDecStmt:
		return w.expr(s.X, in), true
	case *ast.SendStmt:
		st := w.expr(s.Chan, in)
		st = w.expr(s.Value, st)
		if id, ok := ast.Unparen(s.Value).(*ast.Ident); ok && w.isVar(id) {
			st = transfer(st)
		}
		return st, true
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, in, cx)
	case *ast.EmptyStmt:
		return in, true
	default:
		// Unknown statement kind: scan for reads conservatively.
		st := in
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				st = w.expr(e, st)
				return false
			}
			return true
		})
		return st, true
	}
}

// caseClauses joins the states of all case bodies; a missing default
// contributes the pre-switch state.
func (w *walker) caseClauses(clauses []ast.Stmt, in ownState, cx ctx) (ownState, bool) {
	inner := cx
	inner.switchDepth++
	var out ownState
	falls := false
	hasDefault := false
	for _, cl := range clauses {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		st := in
		for _, e := range cc.List {
			st = w.expr(e, st)
		}
		cst, cfalls := w.stmts(cc.Body, st, inner)
		if cfalls {
			out |= cst
			falls = true
		}
	}
	if !hasDefault {
		out |= in
		falls = true
	}
	if !falls {
		return in, false
	}
	return out, true
}

// transfer moves the owned component to escaped.
func transfer(st ownState) ownState {
	if st&owned != 0 {
		st = (st &^ owned) | escaped
	}
	return st
}

// isVar reports whether id denotes the tracked loop variable.
func (w *walker) isVar(id *ast.Ident) bool {
	return w.c.pass.Info.Uses[id] == w.v
}

// expr processes reads, consuming calls and append-transfers inside one
// expression, returning the updated state.
func (w *walker) expr(e ast.Expr, in ownState) ownState {
	if e == nil {
		return in
	}
	st := in
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a separate scope; checkFunc visits it
		case *ast.CallExpr:
			st = w.call(n, st)
			return false
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				st = w.expr(el, st)
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if id, ok := ast.Unparen(v).(*ast.Ident); ok && w.isVar(id) {
					st = transfer(st)
				}
			}
			return false
		case *ast.Ident:
			if w.isVar(n) {
				if st&freed != 0 {
					w.report(n.Pos(),
						"message %s used after Network.Free: the pool may have recycled it", w.v.Name())
					st &^= freed
				}
			}
		}
		return true
	})
	return st
}

// exprUsesOnly records reads without consuming (defer/go bodies).
func (w *walker) exprUsesOnly(e ast.Expr, in ownState) ownState {
	st := in
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && w.isVar(id) && st&freed != 0 {
			w.report(id.Pos(), "message %s used after Network.Free: the pool may have recycled it", w.v.Name())
			st &^= freed
		}
		return true
	})
	return st
}

// call handles one call expression: argument reads first, then the
// consumption effect when the callee is a consumer or append.
func (w *walker) call(call *ast.CallExpr, in ownState) ownState {
	st := w.expr(call.Fun, in)
	varArg := false
	var argPos token.Pos
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && w.isVar(id) {
			// Whether this read is a defect depends on the callee
			// (double free vs use after free); decide below.
			varArg = true
			argPos = id.Pos()
			continue
		}
		st = w.expr(arg, st)
	}
	if !varArg {
		return st
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := w.c.pass.Info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "append" {
			// append(batch, m): ownership transfers to the batch.
			if st&freed != 0 {
				w.report(argPos,
					"message %s used after Network.Free: the pool may have recycled it", w.v.Name())
				st &^= freed
			}
			return transfer(st)
		}
	}
	callee := analysis.Callee(w.c.pass.Info, call)
	if callee != nil && (w.c.isNetworkMethod(callee, "Free") || w.c.isNetworkMethod(callee, "send") || w.c.consumers[callee]) {
		if st&(freed|escaped) != 0 {
			// Already freed or transferred — on every path if the owned
			// bit is gone, on some path if states merged at a join.
			w.report(call.Pos(), "message %s freed twice: every path must resolve ownership exactly once", w.v.Name())
		}
		return (st &^ owned) | freed
	}
	// Borrowed: the callee does not consume, so this is a plain read.
	if st&freed != 0 {
		w.report(argPos,
			"message %s used after Network.Free: the pool may have recycled it", w.v.Name())
		st &^= freed
	}
	return st
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}
