package lint

import (
	"go/ast"
	"go/types"
)

// Fingerprint cross-checks every DeviceFingerprint implementation (the
// sim.Fingerprinter interface) against its receiver struct: a field
// that is constructor state — set once when the device is built and
// never reassigned by any method or function in the package — must be
// read somewhere in DeviceFingerprint, because two devices differing
// only in that field would otherwise collide on a cache key and one
// would be served the other's run (silent result corruption).
//
// Field classification, matching the repo's device idiom:
//
//   - reassigned anywhere in the package (Init/init resets, Step
//     mutation, memoized-fp writes): runtime state, exempt — it is
//     re-derived from the keyed (self, neighbors, input) triple or is
//     the memo itself;
//   - function-typed (decide closures, sim.Builder): exempt — closures
//     have no canonical encoding, so their identity must be carried by
//     another hashed field (e.g. simpleDevice.kind);
//   - everything else: must appear in DeviceFingerprint, or carry an
//     //flmlint:allow flmfingerprint directive explaining why it is
//     derived from hashed state or keyed separately.
var Fingerprint = &Analyzer{
	Name: "flmfingerprint",
	Doc:  "require every constructor-state field of a sim.Fingerprinter to reach its DeviceFingerprint",
	Run:  runFingerprint,
}

func runFingerprint(pass *Pass) {
	type impl struct {
		named *types.Named
		decl  *ast.FuncDecl
		strct *types.Struct
	}
	var impls []impl

	// Find DeviceFingerprint() string methods on struct types.
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "DeviceFingerprint" || fd.Body == nil {
				continue
			}
			sig, ok := pass.TypesInfo.Defs[fd.Name].Type().(*types.Signature)
			if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
				continue
			}
			if basic, ok := sig.Results().At(0).Type().(*types.Basic); !ok || basic.Kind() != types.String {
				continue
			}
			recv := sig.Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok {
				continue
			}
			strct, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			impls = append(impls, impl{named: named, decl: fd, strct: strct})
		}
	}
	if len(impls) == 0 {
		return
	}

	// One pass over the whole package records every field object that is
	// ever mutated: the target of an assignment (d.f = x, d.f += x,
	// d.f++) or the receiver of a pointer-receiver method call
	// (d.scratch.Set(x) — the big.Rat register idiom). Field objects are
	// identical *types.Var pointers across files of the package, so set
	// membership is object identity.
	assigned := make(map[*types.Var]bool)
	fieldOf := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return nil
		}
		v, _ := selection.Obj().(*types.Var)
		return v
	}
	markLHS := func(e ast.Expr) {
		if v := fieldOf(e); v != nil {
			assigned[v] = true
		}
	}
	markMutatingCall := func(call *ast.CallExpr) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.MethodVal {
			return
		}
		sig, ok := selection.Obj().Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return
		}
		if _, ptrRecv := sig.Recv().Type().(*types.Pointer); !ptrRecv {
			return
		}
		if v := fieldOf(sel.X); v != nil {
			assigned[v] = true
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markLHS(lhs)
				}
			case *ast.IncDecStmt:
				markLHS(n.X)
			case *ast.CallExpr:
				markMutatingCall(n)
			}
			return true
		})
	}

	for _, im := range impls {
		// Fields the fingerprint method actually reads.
		read := make(map[*types.Var]bool)
		ast.Inspect(im.decl.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection, ok := pass.TypesInfo.Selections[sel]
			if !ok || selection.Kind() != types.FieldVal {
				return true
			}
			if v, ok := selection.Obj().(*types.Var); ok {
				read[v] = true
			}
			return true
		})

		for i := 0; i < im.strct.NumFields(); i++ {
			f := im.strct.Field(i)
			if f.Name() == "_" || assigned[f] || read[f] {
				continue
			}
			if _, isFunc := f.Type().Underlying().(*types.Signature); isFunc {
				continue
			}
			pass.Reportf(f.Pos(), "field %s.%s is constructor state that never reaches DeviceFingerprint: two devices differing only here share a cache key (hash it, or annotate //flmlint:allow flmfingerprint <why> if it is derived or keyed separately)", im.named.Obj().Name(), f.Name())
		}
	}
}
