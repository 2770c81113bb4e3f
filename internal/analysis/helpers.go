package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// fromPkg reports whether the object is declared in a package whose import
// path is suffix or ends in "/"+suffix. Suffix matching (rather than the
// literal "dylect/..." path) lets test fixtures stand in for the real
// packages.
func fromPkg(obj types.Object, suffix string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return pathHasSuffix(obj.Pkg().Path(), suffix)
}

func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// namedType unwraps t to its *types.Named form, or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// isNamedFrom reports whether t is the named type `name` declared in a
// package matching the path suffix.
func isNamedFrom(t types.Type, pkgSuffix, name string) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && fromPkg(obj, pkgSuffix)
}

// isEngineTime reports whether t is engine.Time.
func isEngineTime(t types.Type) bool {
	return isNamedFrom(t, "internal/engine", "Time")
}

// calleeOf resolves the static callee object of a call expression: a
// package-level function, a method, or nil for indirect/builtin calls.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isTestFile reports whether the file position name is a _test.go file.
func isTestFile(name string) bool {
	return strings.HasSuffix(name, "_test.go")
}

// eachFile visits every file of every package with its package context.
func eachFile(prog *Program, fn func(pkg *Package, file *ast.File)) {
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			fn(pkg, file)
		}
	}
}

// containsSel reports whether the expression tree references an identifier
// or selector resolving to a constant of type engine.Time (one of the unit
// constants, or a derived constant such as a configured latency).
func containsTimeConst(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		var obj types.Object
		switch id := n.(type) {
		case *ast.Ident:
			obj = info.Uses[id]
		}
		if c, ok := obj.(*types.Const); ok && isEngineTime(c.Type()) {
			found = true
			return false
		}
		return true
	})
	return found
}
