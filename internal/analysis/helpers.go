package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// GEA-specific type and package predicates shared by the analyzers.
// Matching is by import-path suffix rather than the literal module path
// so the analyzers keep working against the testdata stubs (whose fake
// packages sit under testdata/src/gea/...) and would survive a module
// rename.

// pathIs reports whether an import path is, or ends with, the given
// module-relative suffix (e.g. "internal/exec").
func pathIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// IsExecPkg reports whether path names the execution-governance package.
func IsExecPkg(path string) bool { return pathIs(path, "internal/exec") }

// operatorPkgs are the packages bound by the operator contract: they
// implement the algebra (or orchestrate it, in system's case) under
// execution governance.
var operatorPkgs = []string{
	"internal/core",
	"internal/cluster",
	"internal/fascicle",
	"internal/xprofiler",
	"internal/system",
}

// IsOperatorPkg reports whether path names one of the operator packages
// bound by the governance contract (no naked panics, sentinel-wrapped
// errors, ...).
func IsOperatorPkg(path string) bool {
	for _, p := range operatorPkgs {
		if pathIs(path, p) {
			return true
		}
	}
	return false
}

// heavyPkgs hold the compute kernels: calling into one of these (or
// into exec.Guard) while holding a registry mutex is the locksafe
// violation.
var heavyPkgs = []string{
	"internal/core",
	"internal/cluster",
	"internal/fascicle",
	"internal/xprofiler",
}

// IsHeavyPkg reports whether path names a compute-kernel package.
func IsHeavyPkg(path string) bool {
	for _, p := range heavyPkgs {
		if pathIs(path, p) {
			return true
		}
	}
	return false
}

// namedDecl returns the named type at the core of t, unwrapping one
// pointer indirection, or nil.
func namedDecl(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamedIn reports whether t (or *t) is the named type pkgSuffix.name.
func isNamedIn(t types.Type, pkgSuffix, name string) bool {
	n := namedDecl(t)
	if n == nil || n.Obj() == nil || n.Obj().Name() != name {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && pathIs(pkg.Path(), pkgSuffix)
}

// IsExecCtl reports whether t is *exec.Ctl (or exec.Ctl).
func IsExecCtl(t types.Type) bool { return isNamedIn(t, "internal/exec", "Ctl") }

// IsErrorType reports whether t is the built-in error interface.
func IsErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// Callee resolves the static callee of a call expression to a
// *types.Func (function or method), or nil for builtins, conversions,
// function-typed variables and other dynamic calls.
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

// CtlParam returns the *types.Var of the first parameter of fn's
// signature whose type is *exec.Ctl, or nil.
func CtlParam(sig *types.Signature) *types.Var {
	for i := 0; i < sig.Params().Len(); i++ {
		if p := sig.Params().At(i); IsExecCtl(p.Type()) {
			return p
		}
	}
	return nil
}

// FuncType returns the declared signature of a FuncDecl via the type
// info, or nil when unavailable.
func FuncType(info *types.Info, decl *ast.FuncDecl) *types.Signature {
	obj, _ := info.Defs[decl.Name].(*types.Func)
	if obj == nil {
		return nil
	}
	sig, _ := obj.Type().(*types.Signature)
	return sig
}
