package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// obsPkgPath is the observability layer whose disabled path must stay
// zero-alloc (the cardinal rule in internal/obs's package doc, pinned
// by TestExecuteUntracedAllocsLikeExecutor and
// TestSpliceUntracedAllocsLikeBody).
const obsPkgPath = "flm/internal/obs"

// ObsCost flags span/event/attr construction for internal/obs that is
// not dominated by an obs.Enabled() guard: a call to obs.StartSpan,
// obs.Event, or (*obs.Span).SetAttrs that passes attributes allocates
// its variadic []Attr (and evaluates every attribute expression) even
// when tracing is off, so such calls must sit behind
//
//	if obs.Enabled() { ... }      // or a bool derived from it
//	if sp != nil { ... }          // a span only exists when enabled
//
// or an equivalent early return (`if !traced { return }`). Calls with
// zero attributes and a literal name are free (the callee's own atomic
// check suffices) and are not flagged. Helpers that are only invoked
// from guarded call sites declare that contract with a function-level
// //flmlint:allow flmobscost directive.
var ObsCost = &Analyzer{
	Name: "flmobscost",
	Doc:  "require obs attr construction to be dominated by an obs.Enabled()/nil-span guard",
	Run:  runObsCost,
}

func runObsCost(pass *Pass) {
	// The obs package itself builds attrs behind its own atomic check.
	if pass.Pkg.Path() == obsPkgPath {
		return
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		walkGuarded(pass, file, checkObsCall)
	}
}

// walkGuarded walks every function in the file with a guardWalker,
// invoking onCall on each call expression along with whether the call
// site is dominated by an obs.Enabled()/nil-span guard. Shared by
// flmobscost (attr construction) and flmdeterminism (wall-clock reads,
// which are allowed when they can only feed tracing).
func walkGuarded(pass *Pass, file *ast.File, onCall func(*Pass, *ast.CallExpr, bool)) {
	w := &guardWalker{pass: pass, onCall: onCall}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				w.enabledVars = enabledBoolVars(pass, n.Body)
				w.stmts(n.Body.List, false)
			}
			return false
		case *ast.FuncLit:
			// Top-level literals (package var initializers).
			w.enabledVars = enabledBoolVars(pass, n.Body)
			w.stmts(n.Body.List, false)
			return false
		}
		return true
	})
}

// enabledBoolVars collects objects assigned from obs.Enabled() anywhere
// in the function (`traced := obs.Enabled()`), so `if traced { ... }`
// counts as a guard.
func enabledBoolVars(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			if name, ok := pkgFuncCall(pass, call, obsPkgPath); !ok || name != "Enabled" {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					vars[obj] = true
				}
			}
		}
		return true
	})
	return vars
}

// guardWalker walks statements tracking whether the current position
// is dominated by an enabled-guard, calling onCall at each call site.
type guardWalker struct {
	pass        *Pass
	enabledVars map[types.Object]bool
	onCall      func(*Pass, *ast.CallExpr, bool)
}

// stmts walks a statement list; a leading `if <not-enabled> { ...return }`
// guards everything after it.
func (w *guardWalker) stmts(list []ast.Stmt, guarded bool) {
	for _, s := range list {
		w.stmt(s, guarded)
		if !guarded {
			if ifs, ok := s.(*ast.IfStmt); ok && ifs.Init == nil && ifs.Else == nil &&
				w.isNegatedGuard(ifs.Cond) && terminates(ifs.Body) {
				guarded = true
			}
		}
	}
}

func (w *guardWalker) stmt(s ast.Stmt, guarded bool) {
	switch s := s.(type) {
	case nil:
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, guarded)
		}
		w.exprs(guarded, s.Cond)
		thenGuard := guarded || w.isGuard(s.Cond)
		elseGuard := guarded || w.isNegatedGuard(s.Cond)
		w.stmts(s.Body.List, thenGuard)
		if s.Else != nil {
			w.stmt(s.Else, elseGuard)
		}
	case *ast.BlockStmt:
		w.stmts(s.List, guarded)
	case *ast.ForStmt:
		w.stmt(s.Init, guarded)
		w.exprs(guarded, s.Cond)
		w.stmt(s.Post, guarded)
		w.stmts(s.Body.List, guarded)
	case *ast.RangeStmt:
		w.exprs(guarded, s.X)
		w.stmts(s.Body.List, guarded)
	case *ast.SwitchStmt:
		w.stmt(s.Init, guarded)
		w.exprs(guarded, s.Tag)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			w.exprs(guarded, cc.List...)
			w.stmts(cc.Body, guarded)
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, guarded)
		w.stmt(s.Assign, guarded)
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, guarded)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			w.stmt(cc.Comm, guarded)
			w.stmts(cc.Body, guarded)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, guarded)
	case *ast.AssignStmt:
		w.exprs(guarded, s.Rhs...)
		w.exprs(guarded, s.Lhs...)
	case *ast.ExprStmt:
		w.exprs(guarded, s.X)
	case *ast.DeferStmt:
		w.exprs(guarded, s.Call)
	case *ast.GoStmt:
		w.exprs(guarded, s.Call)
	case *ast.ReturnStmt:
		w.exprs(guarded, s.Results...)
	case *ast.SendStmt:
		w.exprs(guarded, s.Chan, s.Value)
	case *ast.IncDecStmt:
		w.exprs(guarded, s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(guarded, vs.Values...)
				}
			}
		}
	}
}

// exprs checks expressions for flagged obs calls; function literals
// inside get a fresh scope (their bodies run at an unknown time, so the
// surrounding guard is assumed to still hold — the literal inherits the
// current guard state, which matches the worker-closure idiom where the
// closure is built inside `if traced`).
func (w *guardWalker) exprs(guarded bool, exprs ...ast.Expr) {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				saved := w.enabledVars
				w.enabledVars = enabledBoolVars(w.pass, n.Body)
				for k, v := range saved {
					w.enabledVars[k] = v
				}
				w.stmts(n.Body.List, guarded)
				w.enabledVars = saved
				return false
			case *ast.CallExpr:
				w.onCall(w.pass, n, guarded)
			}
			return true
		})
	}
}

// checkObsCall is the flmobscost per-call hook: it flags attr-carrying
// obs calls at unguarded positions.
func checkObsCall(pass *Pass, call *ast.CallExpr, guarded bool) {
	if guarded {
		return
	}
	if name, ok := pkgFuncCall(pass, call, obsPkgPath); ok {
		switch name {
		case "StartSpan", "Event":
			if len(call.Args) > 2 {
				pass.Reportf(call.Pos(), "obs.%s builds %d attr(s) outside an obs.Enabled() guard: the disabled path must stay zero-alloc (wrap in `if obs.Enabled()` or guard on a nil span)", name, len(call.Args)-2)
			} else if len(call.Args) == 2 && containsCall(call.Args[1]) {
				pass.Reportf(call.Pos(), "obs.%s computes its name outside an obs.Enabled() guard: the expression runs even when tracing is off", name)
			}
		}
		return
	}
	// (*obs.Span).SetAttrs with at least one attribute.
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "SetAttrs" || len(call.Args) == 0 {
		return
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	fn := selection.Obj()
	if fn.Pkg() == nil || fn.Pkg().Path() != obsPkgPath {
		return
	}
	pass.Reportf(call.Pos(), "Span.SetAttrs builds %d attr(s) outside an obs.Enabled()/nil-span guard: the variadic []Attr allocates even on a nil span", len(call.Args))
}

// isGuard reports whether cond establishes "tracing is on": a call to
// obs.Enabled(), a bool assigned from it, a non-nil check on a *obs.Span,
// or a conjunction containing one.
func (w *guardWalker) isGuard(cond ast.Expr) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.CallExpr:
		name, ok := pkgFuncCall(w.pass, c, obsPkgPath)
		return ok && name == "Enabled"
	case *ast.Ident:
		return w.enabledVars[w.pass.TypesInfo.ObjectOf(c)]
	case *ast.BinaryExpr:
		switch c.Op.String() {
		case "&&":
			return w.isGuard(c.X) || w.isGuard(c.Y)
		case "!=":
			return w.isSpanNilCompare(c)
		}
	}
	return false
}

func (w *guardWalker) isNegatedGuard(cond ast.Expr) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		return c.Op.String() == "!" && w.isGuard(c.X)
	case *ast.BinaryExpr:
		switch c.Op.String() {
		case "||":
			return w.isNegatedGuard(c.X) || w.isNegatedGuard(c.Y)
		case "==":
			return w.isSpanNilCompare(c)
		}
	}
	return false
}

// isSpanNilCompare reports whether the comparison has an observability
// handle on one side and nil on the other. Handles are *obs.Span and
// *obs.Tracer, plus — by repo convention — any pointer to a named type
// whose name ends in "Obs" (e.g. sweep's *workerObs): such per-call
// observability bundles are only non-nil when tracing was enabled at
// construction, so a nil check dominates exactly like obs.Enabled().
func (w *guardWalker) isSpanNilCompare(c *ast.BinaryExpr) bool {
	spanSide := func(e ast.Expr) bool {
		t := w.pass.TypesInfo.TypeOf(e)
		ptr, ok := t.(*types.Pointer)
		if !ok {
			return false
		}
		named, ok := ptr.Elem().(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return false
		}
		name := named.Obj().Name()
		if named.Obj().Pkg().Path() == obsPkgPath {
			return name == "Span" || name == "Tracer"
		}
		return strings.HasSuffix(name, "Obs")
	}
	nilSide := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil" && w.pass.TypesInfo.ObjectOf(id) == types.Universe.Lookup("nil")
	}
	return (spanSide(c.X) && nilSide(c.Y)) || (nilSide(c.X) && spanSide(c.Y))
}

// terminates reports whether the block always transfers control away
// (ends in return, panic, continue, break, or goto).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// containsCall reports whether the expression contains any function
// call (work that would run on the disabled path).
func containsCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}
