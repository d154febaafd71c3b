package lint

import (
	"go/ast"
	"go/types"
)

// Alias mechanizes the executor-ownership contract on device hot paths:
//
//   - sim.Device.Step(round, inbox): the inbox slice is the device's
//     window into the executor's mailbox ring, which later rounds' mail
//     overwrites;
//   - timedsim.Device.Tick(k, hw, inbox): the inbox slice is reused
//     between ticks. hw is an immutable clockfn.Q value, which a device
//     may keep; a pointer-typed parameter of a Tick method is still
//     treated as a scratch register the executor owns.
//
// A device that stores one of these — directly, via a sub-slice, via a
// pointer to an element, or through a local alias — into a struct field
// or package variable reads stale or rewritten data next round, and the
// corruption is silent because the buffer usually still holds plausible
// values. The analyzer flags retention of an owned parameter (or a
// value derived from it by index/slice/address-of/parens alone) into
// anything that outlives the call. Copies (append, copy, big.Rat.Set,
// string conversion) launder ownership and are not flagged.
var Alias = &Analyzer{
	Name: "flmalias",
	Doc:  "forbid retention of executor-owned Step/Tick buffers in struct fields or package state",
	Run:  runAlias,
}

func runAlias(pass *Pass) {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			owned := ownedParams(pass, fd)
			if len(owned) == 0 {
				continue
			}
			checkRetention(pass, fd, owned)
		}
	}
}

// ownedParams returns the executor-owned parameter objects of a Step or
// Tick method. Matching is structural, not interface-based, so wrapper
// devices and future device families are covered automatically:
//
//	Step: any slice-typed parameter (the inbox window);
//	Tick: any slice-typed parameter (the inbox) and any pointer-typed
//	      parameter (the hw scratch register).
func ownedParams(pass *Pass, fd *ast.FuncDecl) map[types.Object]string {
	if fd.Name.Name != "Step" && fd.Name.Name != "Tick" {
		return nil
	}
	owned := make(map[types.Object]string)
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.ObjectOf(name)
			if obj == nil {
				continue
			}
			switch obj.Type().Underlying().(type) {
			case *types.Slice:
				owned[obj] = "inbox slice"
			case *types.Pointer:
				if fd.Name.Name == "Tick" {
					owned[obj] = "scratch register"
				}
			}
		}
	}
	return owned
}

// checkRetention flags assignments whose RHS aliases an owned parameter
// and whose LHS outlives the call. Local variables aliasing an owned
// value become owned themselves (one-level, iterated to fixpoint), so
// `tmp := inbox; d.saved = tmp` is still caught.
func checkRetention(pass *Pass, fd *ast.FuncDecl, owned map[types.Object]string) {
	// aliasRoot returns the owned object the expression aliases, or nil.
	// Only operations that preserve aliasing count: parens, indexing,
	// slicing, address-of, field selection through the value. Any
	// function call (append, copy, .Set, conversions to string) breaks
	// the chain.
	var aliasRoot func(e ast.Expr) types.Object
	aliasRoot = func(e ast.Expr) types.Object {
		switch e := e.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.ObjectOf(e)
			if obj != nil {
				if _, ok := owned[obj]; ok {
					return obj
				}
			}
			return nil
		case *ast.ParenExpr:
			return aliasRoot(e.X)
		case *ast.IndexExpr:
			// inbox[i] yields an element; for value types (string,
			// struct) this is a copy, but the enclosing &inbox[i] or
			// inbox[i:j] cases below are what reach here with aliasing
			// still live. A bare element read is handled by the caller
			// deciding whether the assigned type can alias.
			return aliasRoot(e.X)
		case *ast.SliceExpr:
			return aliasRoot(e.X)
		case *ast.UnaryExpr:
			if e.Op.String() == "&" {
				return aliasRoot(e.X)
			}
			return nil
		case *ast.SelectorExpr:
			return aliasRoot(e.X)
		case *ast.StarExpr:
			return aliasRoot(e.X)
		}
		return nil
	}

	// canAlias reports whether a value of type t can carry a reference
	// to the executor's buffer: maps, slices, and pointers can; strings
	// and other scalars copied out of the buffer cannot.
	canAlias := func(t types.Type) bool {
		if t == nil {
			return true
		}
		switch t.Underlying().(type) {
		case *types.Map, *types.Slice, *types.Pointer, *types.Interface, *types.Chan, *types.Signature:
			return true
		case *types.Struct, *types.Array:
			return true // may embed pointers (timedsim.Message.SentAt)
		}
		return false
	}

	// escapes reports whether the LHS outlives the call: a selector
	// (struct field), an index into anything non-local, a dereference,
	// or a package-level variable.
	isLocal := func(obj types.Object) bool {
		if obj == nil {
			return false
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return false
		}
		// Package-scope variables escape; function-scope ones don't.
		return v.Parent() != nil && v.Parent() != pass.Pkg.Scope()
	}
	var escapes func(e ast.Expr) bool
	escapes = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			if e.Name == "_" {
				return false
			}
			return !isLocal(pass.TypesInfo.ObjectOf(e))
		case *ast.SelectorExpr, *ast.StarExpr:
			return true
		case *ast.IndexExpr:
			return escapes(e.X)
		case *ast.ParenExpr:
			return escapes(e.X)
		}
		return false
	}

	// Pass 1 (to fixpoint): propagate ownership into local aliases.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				root := aliasRoot(rhs)
				if root == nil || !canAlias(pass.TypesInfo.TypeOf(rhs)) {
					continue
				}
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok || !isLocal(pass.TypesInfo.ObjectOf(id)) {
					continue
				}
				obj := pass.TypesInfo.ObjectOf(id)
				if _, already := owned[obj]; !already {
					owned[obj] = owned[root] + " (via local alias)"
					changed = true
				}
			}
			return true
		})
	}

	// Pass 2: report escaping assignments.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			root := aliasRoot(rhs)
			if root == nil || !canAlias(pass.TypesInfo.TypeOf(rhs)) {
				continue
			}
			if !escapes(as.Lhs[i]) {
				continue
			}
			pass.Reportf(as.Pos(), "%s.%s retains the executor-owned %s (%s) past the call: the executor reuses it next round, so copy what you need instead", recvTypeName(pass, fd), fd.Name.Name, owned[root], root.Name())
		}
		return true
	})
}

func recvTypeName(pass *Pass, fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return "?"
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return "?"
}
