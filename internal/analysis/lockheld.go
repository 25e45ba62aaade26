package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockHeld flags blocking operations performed while a sync.Mutex or
// sync.RWMutex is held — the deadlock shape the parameter server's
// Abort protocol (§3) exists to break by hand: a goroutine parks on
// a channel or a Conduit round trip with a server lock held, and
// every other goroutine that needs the lock parks behind it forever.
//
// Blocking operations: channel send/receive (a select with a default
// clause is non-blocking and exempt), range over a channel,
// time.Sleep, sync.WaitGroup.Wait, net dial/listen and net.Conn IO,
// internal/transport Conduit IO (Send*/Recv*/Dial*/Exchange*), and
// sync.Cond.Wait on a FOREIGN lock — c.Wait() while holding a mutex
// that does not share the cond's receiver base (p.cond.Wait() under
// p.mu is the sanctioned parking pattern and stays exempt; v.cond.Wait()
// under s.mu is a deadlock waiting for its trigger).
//
// The tracker is a source-order scan per function, not a CFG: locks
// acquired under one branch arm and released in another may
// misreport — annotate such sites with //parallax:allow(lockheld)
// and a justification.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc: "flag blocking operations (channel ops, Conduit/net IO, foreign Cond.Wait) " +
		"while a sync.Mutex/RWMutex is held",
	Run: runLockHeld,
}

type heldLock struct {
	path string // rendered receiver path: "s.mu"
	base string // path minus the final selector: "s"
	pos  token.Pos
}

func runLockHeld(pass *Pass) error {
	for _, file := range pass.Files {
		for _, body := range functionBodies(file) {
			lt := &lockTracker{pass: pass}
			lt.walkStmts(body.List)
		}
	}
	return nil
}

type lockTracker struct {
	pass *Pass
	held []heldLock
}

func (lt *lockTracker) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		lt.walkStmt(s)
	}
}

func (lt *lockTracker) walkStmt(s ast.Stmt) {
	switch x := s.(type) {
	case nil:
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok && lt.lockOp(call) {
			return
		}
		lt.walkExpr(x.X)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end — the
		// standard pattern; the scan simply continues with it held.
		// Deferred function literals run after everything else and get
		// their own fresh scope in functionBodies.
		if !lt.isUnlockCall(x.Call) {
			for _, arg := range x.Call.Args {
				lt.walkExpr(arg)
			}
		}
	case *ast.GoStmt:
		// The go statement itself never blocks; the goroutine body is
		// a fresh scope handled by functionBodies.
		for _, arg := range x.Call.Args {
			lt.walkExpr(arg)
		}
	case *ast.SendStmt:
		lt.blockingOp(x.Pos(), "send on channel "+exprString(x.Chan))
		lt.walkExpr(x.Value)
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			lt.walkExpr(r)
		}
		for _, l := range x.Lhs {
			lt.walkExpr(l)
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			lt.walkExpr(r)
		}
	case *ast.IfStmt:
		lt.walkStmt(x.Init)
		lt.walkExpr(x.Cond)
		lt.walkStmts(x.Body.List)
		lt.walkStmt(x.Else)
	case *ast.ForStmt:
		lt.walkStmt(x.Init)
		lt.walkExpr(x.Cond)
		lt.walkStmts(x.Body.List)
		lt.walkStmt(x.Post)
	case *ast.RangeStmt:
		if _, ok := lt.pass.Info.TypeOf(x.X).Underlying().(*types.Chan); ok {
			lt.blockingOp(x.Pos(), "receive from channel "+exprString(x.X))
		}
		lt.walkExpr(x.X)
		lt.walkStmts(x.Body.List)
	case *ast.SwitchStmt:
		lt.walkStmt(x.Init)
		lt.walkExpr(x.Tag)
		for _, c := range x.Body.List {
			lt.walkStmts(c.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		lt.walkStmt(x.Init)
		lt.walkStmt(x.Assign)
		for _, c := range x.Body.List {
			lt.walkStmts(c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range x.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault && len(x.Body.List) > 0 {
			// Without a default clause the select parks until one case
			// is ready — as blocking as a bare channel op.
			lt.blockingOp(x.Pos(), "select without default")
		}
		for _, c := range x.Body.List {
			lt.walkStmts(c.(*ast.CommClause).Body)
		}
	case *ast.BlockStmt:
		lt.walkStmts(x.List)
	case *ast.LabeledStmt:
		lt.walkStmt(x.Stmt)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						lt.walkExpr(v)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		lt.walkExpr(x.X)
	}
}

// walkExpr scans an expression for blocking operations: receive
// expressions and blocking calls. Function literals are skipped (own
// scope).
func (lt *lockTracker) walkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				lt.blockingOp(x.Pos(), "receive from channel "+exprString(x.X))
			}
		case *ast.CallExpr:
			if lt.lockOp(x) {
				return false
			}
			lt.checkBlockingCall(x)
		}
		return true
	})
}

// lockOp updates the held set for mu.Lock/RLock/Unlock/RUnlock calls
// and reports whether the call was one.
func (lt *lockTracker) lockOp(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := lt.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	path := exprString(sel.X)
	base := path
	if i := strings.LastIndex(path, "."); i >= 0 {
		base = path[:i]
	}
	switch fn.Name() {
	case "Lock", "RLock":
		if !lt.recvIsMutex(sel) {
			return false
		}
		lt.held = append(lt.held, heldLock{path: path, base: base, pos: call.Pos()})
		return true
	case "Unlock", "RUnlock":
		if !lt.recvIsMutex(sel) {
			return false
		}
		for i := len(lt.held) - 1; i >= 0; i-- {
			if lt.held[i].path == path {
				lt.held = append(lt.held[:i], lt.held[i+1:]...)
				break
			}
		}
		return true
	}
	return false
}

// recvIsMutex reports whether the selection's receiver is (or embeds)
// a sync.Mutex/RWMutex, as opposed to sync.Once/WaitGroup methods
// that share no names, or a sync.Locker interface value.
func (lt *lockTracker) recvIsMutex(sel *ast.SelectorExpr) bool {
	t := lt.pass.Info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	for {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	if named, ok := t.(*types.Named); ok {
		name := named.Obj().Name()
		if named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" &&
			(name == "Mutex" || name == "RWMutex") {
			return true
		}
	}
	// Embedded mutex promoted through a struct: the selection still
	// lands on sync's method set.
	if s, ok := lt.pass.Info.Selections[sel]; ok {
		if recv := s.Obj().(*types.Func).Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				name := named.Obj().Name()
				return name == "Mutex" || name == "RWMutex"
			}
		}
	}
	return false
}

// isUnlockCall reports whether call is mu.Unlock()/mu.RUnlock() and,
// if so, records nothing: the deferred unlock fires at return, so the
// lock stays held for the remainder of the scan.
func (lt *lockTracker) isUnlockCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := lt.pass.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" &&
		(fn.Name() == "Unlock" || fn.Name() == "RUnlock")
}

func (lt *lockTracker) blockingOp(pos token.Pos, what string) {
	if len(lt.held) == 0 {
		return
	}
	h := lt.held[len(lt.held)-1]
	lt.pass.Reportf(pos,
		"blocking %s while %s is held (locked at %s); release the lock first or annotate //parallax:allow(lockheld)",
		what, h.path, lt.pass.Fset.Position(h.pos))
}

func (lt *lockTracker) checkBlockingCall(call *ast.CallExpr) {
	if len(lt.held) == 0 {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := lt.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	name, pkg := fn.Name(), fn.Pkg().Path()
	switch {
	case pkg == "time" && name == "Sleep":
		lt.blockingOp(call.Pos(), "time.Sleep")
	case pkg == "sync" && name == "Wait":
		recv := lt.condOrWaitGroup(sel)
		switch recv {
		case "WaitGroup":
			lt.blockingOp(call.Pos(), "sync.WaitGroup.Wait on "+exprString(sel.X))
		case "Cond":
			lt.checkCondWait(call, sel)
		}
	case pkg == "net":
		lt.blockingOp(call.Pos(), "net."+name+" IO")
	case strings.HasSuffix(pkg, "internal/transport"):
		for _, prefix := range []string{"Send", "Recv", "Dial", "Exchange"} {
			if strings.HasPrefix(name, prefix) {
				lt.blockingOp(call.Pos(), "transport "+name+" round trip")
				return
			}
		}
	}
}

// condOrWaitGroup classifies a sync.Wait selection's receiver type.
func (lt *lockTracker) condOrWaitGroup(sel *ast.SelectorExpr) string {
	t := lt.pass.Info.TypeOf(sel.X)
	for t != nil {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// checkCondWait flags c.Wait() when a held mutex does not share the
// cond's receiver base: waiting on p.cond under p.mu is the parking
// pattern Cond exists for, but waiting on a foreign cond keeps OUR
// lock held while parked on THEIRS.
func (lt *lockTracker) checkCondWait(call *ast.CallExpr, sel *ast.SelectorExpr) {
	condPath := exprString(sel.X)
	condBase := condPath
	if i := strings.LastIndex(condPath, "."); i >= 0 {
		condBase = condPath[:i]
	}
	for _, h := range lt.held {
		if h.base != condBase {
			lt.pass.Reportf(call.Pos(),
				"%s.Wait() parks while foreign lock %s is held (locked at %s); release it first or annotate //parallax:allow(lockheld)",
				condPath, h.path, lt.pass.Fset.Position(h.pos))
			return
		}
	}
}
