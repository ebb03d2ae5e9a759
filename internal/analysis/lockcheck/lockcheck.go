// Package lockcheck guards the two mutex disciplines of the tree's
// locks (obs.Registry's name tables, shared by a sharded run's engines;
// core's run stores, victim's alias tables, topology's bandwidth
// tables, shared by harness.Execute's goroutines): a critical section
// must release its lock on every path out of the function, and must not
// perform a channel send while the lock is held (a blocked receiver
// would then deadlock every goroutine queued on the mutex).
//
// The analyzer is lexical, not path-sensitive: for each Lock/RLock call
// it scans forward to the first matching Unlock/RUnlock on the same
// receiver expression within the same function literal, and reports
//
//   - a return statement between the two ("skipped unlock"),
//   - a channel send between the two,
//   - a barrier primitive between the two — a channel receive or a
//     sync.WaitGroup.Wait — which blocks until *another* goroutine
//     acts; if that goroutine needs the held lock (the sharded
//     kernel's window barrier is the motivating shape: workers
//     rendezvous with a coordinator every window), the barrier never
//     opens. sync.Cond.Wait is exempt: it is specified to be called
//     with its lock held and releases it while waiting,
//   - a Lock with no matching unlock and no deferred unlock at all.
//
// A deferred unlock (including one inside a deferred closure) guards
// all return paths, but sends after the Lock are still reported — the
// lock is held until function exit. Function literals are independent
// scopes: a return inside a callback does not leave the enclosing
// critical section.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"distws/internal/analysis"
)

// New returns the analyzer. It has no configuration: the invariant is
// repo-wide.
func New() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "lockcheck",
		Doc:  "flags critical sections that can skip Unlock or send on a channel while locked",
	}
	a.Run = func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
					checkScope(pass, fn.Body)
				}
			}
		}
		return nil
	}
	return a
}

type eventKind int

const (
	lockEvent eventKind = iota
	unlockEvent
	returnEvent
	sendEvent
	recvEvent
	waitEvent
)

type event struct {
	pos      token.Pos
	kind     eventKind
	method   string // Lock, RLock, Unlock, RUnlock
	key      string // receiver expression, e.g. "w.mu"
	deferred bool
}

// checkScope analyzes one function body. Nested function literals are
// independent scopes: they are collected and analyzed separately, and
// only the unlocks of a *deferred* closure contribute (as deferred
// unlock events) to the enclosing scope.
func checkScope(pass *analysis.Pass, body *ast.BlockStmt) {
	var events []event
	var nested []*ast.FuncLit
	deferredCalls := make(map[*ast.CallExpr]bool)

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			nested = append(nested, n)
			return false
		case *ast.DeferStmt:
			deferredCalls[n.Call] = true
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				// defer func() { ...; mu.Unlock() }() guards this
				// scope's mu just like defer mu.Unlock().
				for _, e := range unlocksIn(pass, lit.Body) {
					e.deferred = true
					events = append(events, e)
				}
			}
		case *ast.ReturnStmt:
			events = append(events, event{pos: n.Pos(), kind: returnEvent})
		case *ast.SendStmt:
			events = append(events, event{pos: n.Arrow, kind: sendEvent})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				events = append(events, event{pos: n.OpPos, kind: recvEvent})
			}
		case *ast.CallExpr:
			if isWaitGroupWait(pass, n) {
				events = append(events, event{pos: n.Pos(), kind: waitEvent})
			}
			if method, key, ok := syncLockCall(pass, n); ok {
				kind := lockEvent
				if method == "Unlock" || method == "RUnlock" {
					kind = unlockEvent
				}
				events = append(events, event{
					pos:      n.Pos(),
					kind:     kind,
					method:   method,
					key:      key,
					deferred: deferredCalls[n],
				})
			}
		}
		return true
	})

	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	reportScope(pass, events)

	for _, lit := range nested {
		checkScope(pass, lit.Body)
	}
}

// unlocksIn collects the Unlock/RUnlock events of one closure body,
// not descending into further nested literals.
func unlocksIn(pass *analysis.Pass, body *ast.BlockStmt) []event {
	var out []event
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if c, isCall := n.(*ast.CallExpr); isCall {
			if method, key, ok := syncLockCall(pass, c); ok &&
				(method == "Unlock" || method == "RUnlock") {
				out = append(out, event{pos: c.Pos(), kind: unlockEvent, method: method, key: key})
			}
		}
		return true
	})
	return out
}

// reportScope applies the critical-section rules to one scope's
// position-sorted events.
func reportScope(pass *analysis.Pass, events []event) {
	for _, l := range events {
		if l.kind != lockEvent || l.deferred {
			continue
		}
		unlockName := "Unlock"
		if l.method == "RLock" {
			unlockName = "RUnlock"
		}

		guarded := false
		for _, e := range events {
			if e.kind == unlockEvent && e.deferred && e.key == l.key && e.method == unlockName {
				guarded = true
				break
			}
		}

		end := token.Pos(-1) // exclusive end of the critical section
		if !guarded {
			for _, e := range events {
				if e.kind == unlockEvent && !e.deferred && e.key == l.key &&
					e.method == unlockName && e.pos > l.pos {
					end = e.pos
					break
				}
			}
			if end < 0 {
				pass.Reportf(l.pos,
					"%s.%s() has no matching %s in this function: the lock can never be released",
					l.key, l.method, unlockName)
				continue
			}
		}

		lockLine := pass.Fset.Position(l.pos).Line
		for _, e := range events {
			if e.pos <= l.pos || (!guarded && e.pos >= end) {
				continue
			}
			switch e.kind {
			case returnEvent:
				if !guarded {
					pass.Reportf(e.pos,
						"return while %s is locked (%s at line %d): this path skips %s",
						l.key, l.method, lockLine, unlockName)
				}
			case sendEvent:
				pass.Reportf(e.pos,
					"channel send while holding %s (%s at line %d): a blocked receiver stalls every goroutine queued on the lock",
					l.key, l.method, lockLine)
			case recvEvent:
				pass.Reportf(e.pos,
					"channel receive while holding %s (%s at line %d): the barrier cannot open if the sender needs the lock",
					l.key, l.method, lockLine)
			case waitEvent:
				pass.Reportf(e.pos,
					"WaitGroup.Wait while holding %s (%s at line %d): a worker that needs the lock can never call Done",
					l.key, l.method, lockLine)
			}
		}
	}
}

// isWaitGroupWait reports whether call is wg.Wait() on a
// sync.WaitGroup receiver. sync.Cond.Wait deliberately does not match:
// it must be called with the lock held.
func isWaitGroupWait(pass *analysis.Pass, call *ast.CallExpr) bool {
	se, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	sel := pass.Info.Selections[se]
	if sel == nil || sel.Kind() != types.MethodVal {
		return false
	}
	fn, ok := sel.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != "Wait" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	ptr, ok := recv.Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "WaitGroup"
}

// syncLockCall reports whether call is mu.Lock / RLock / Unlock /
// RUnlock on a sync.Mutex, sync.RWMutex or sync.Locker receiver, and
// returns the method name and the receiver expression rendered as a
// stable key.
func syncLockCall(pass *analysis.Pass, call *ast.CallExpr) (method, key string, ok bool) {
	se, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	sel := pass.Info.Selections[se]
	if sel == nil || sel.Kind() != types.MethodVal {
		return "", "", false
	}
	fn, ok := sel.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return fn.Name(), types.ExprString(se.X), true
	}
	return "", "", false
}
