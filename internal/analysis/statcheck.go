package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// StatCheck returns the analyzer that enforces stats integrity across the
// whole program: every struct field of type stats.Counter or
// stats.Accumulator (or an array of either) declared in a module package
// must be
//
//   - written somewhere: an .Inc or .Add call on a counter, an .Observe
//     call on an accumulator, and
//   - read somewhere: a counter's .Value call, or its address handed to
//     the metrics registry (any call into a package whose import path ends
//     in internal/metrics, e.g. Recorder.RegisterCounter); an
//     accumulator's .Mean, .Count, .Sum, .Min, .Max or .StdDev call. These
//     are the paths by which a statistic reaches serialized output: a read
//     feeds system.Result, registration feeds interval samples.
//
// A statistic that is written but never read is write-only: it costs work
// on the hot path and silently vanishes from results.json. One that is read
// but never written is an export orphan: it serializes as a
// plausible-looking zero, which is worse than absent when numbers are
// compared against the paper. Reset calls count as neither.
//
// The check is cross-package by construction — mc.Stats counters are
// incremented in internal/mc but read in internal/system — which is why the
// framework hands analyzers the whole Program.
func StatCheck() *Analyzer {
	return &Analyzer{
		Name: "statcheck",
		Doc:  "every stats.Counter and stats.Accumulator struct field must be both written (Inc/Add, Observe) and read (Value, Mean/Count/Sum/Min/Max/StdDev) somewhere in the program",
		Run:  runStatCheck,
	}
}

// statKind is a tracked stats type: the verb its writes are reported with,
// and whether each of its methods writes (true) or reads (false) it.
type statKind struct {
	noun, written string
	methods       map[string]bool
}

var statKinds = map[string]*statKind{
	"Counter": {noun: "counter", written: "incremented",
		methods: map[string]bool{"Inc": true, "Add": true, "Value": false}},
	"Accumulator": {noun: "accumulator", written: "observed",
		methods: map[string]bool{"Observe": true, "Mean": false, "Count": false,
			"Sum": false, "Min": false, "Max": false, "StdDev": false}},
}

// statKindOf returns the tracked kind of t, a stats type or an array of
// one, or nil.
func statKindOf(t types.Type) *statKind {
	if arr, ok := types.Unalias(t).(*types.Array); ok {
		t = arr.Elem()
	}
	n := namedType(t)
	if n == nil || !fromPkg(n.Obj(), "internal/stats") {
		return nil
	}
	return statKinds[n.Obj().Name()]
}

// statField captures one declared statistic for reporting.
type statField struct {
	obj     *types.Var
	kind    *statKind
	written bool
	read    bool
}

func runStatCheck(prog *Program) []Diagnostic {
	// Pass 1: collect every tracked stats struct field declared in the
	// program, keyed by its types.Var identity (shared across packages
	// because the loader checks everything in one type universe).
	fields := make(map[*types.Var]*statField)
	var order []*types.Var // stable reporting order: declaration order
	eachFile(prog, func(pkg *Package, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					obj, ok := pkg.Info.Defs[name].(*types.Var)
					if !ok || !obj.IsField() {
						continue
					}
					kind := statKindOf(obj.Type())
					if kind == nil {
						continue
					}
					if _, seen := fields[obj]; !seen {
						fields[obj] = &statField{obj: obj, kind: kind}
						order = append(order, obj)
					}
				}
			}
			return true
		})
	})
	if len(fields) == 0 {
		return nil
	}

	// Pass 2: classify every method call on a stats-typed selection.
	eachFile(prog, func(pkg *Package, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// A counter whose address is passed into the metrics package
			// is being registered for interval sampling — that is a read
			// path (the registry snapshots Value on every sample).
			if calleeInMetricsPkg(pkg.Info, call) {
				for _, arg := range call.Args {
					if f := statAddrArg(pkg.Info, arg); f != nil {
						if cf, tracked := fields[f]; tracked {
							cf.read = true
						}
					}
				}
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			f := fieldOfStatExpr(pkg.Info, sel.X)
			if f == nil {
				return true
			}
			cf, tracked := fields[f]
			if !tracked {
				return true
			}
			if write, ok := cf.kind.methods[sel.Sel.Name]; ok {
				if write {
					cf.written = true
				} else {
					cf.read = true
				}
			}
			return true
		})
	})

	var diags []Diagnostic
	for _, obj := range order {
		cf := fields[obj]
		name, k := qualifiedField(cf.obj), cf.kind
		var msg string
		switch {
		case cf.written && !cf.read:
			msg = fmt.Sprintf("write-only %s %s: %s but never read, so it never reaches serialized results; export it or delete it", k.noun, name, k.written)
		case cf.read && !cf.written:
			msg = fmt.Sprintf("export-orphaned %s %s: read/serialized but never %s, so results report a misleading constant zero", k.noun, name, k.written)
		case !cf.read && !cf.written:
			msg = fmt.Sprintf("dead %s %s: never %s and never read", k.noun, name, k.written)
		default:
			continue
		}
		diags = append(diags, Diagnostic{Pos: cf.obj.Pos(), Message: msg})
	}
	return diags
}

// qualifiedField names a field as pkg.Struct.Field for diagnostics.
func qualifiedField(v *types.Var) string {
	name := v.Name()
	if pkg := v.Pkg(); pkg != nil {
		name = pkg.Name() + "." + name
	}
	return name
}

// calleeInMetricsPkg reports whether the call's callee (function or method)
// is declared in a package whose import path ends in internal/metrics.
func calleeInMetricsPkg(info *types.Info, call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj = info.ObjectOf(fun.Sel)
	case *ast.Ident:
		obj = info.ObjectOf(fun)
	}
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(obj.Pkg().Path(), "internal/metrics")
}

// statAddrArg resolves a &s.Field (or &s.Arr[i]) argument to the stats
// struct field whose address is being taken; nil for anything else.
func statAddrArg(info *types.Info, e ast.Expr) *types.Var {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	return fieldOfStatExpr(info, u.X)
}

// fieldOfStatExpr resolves the struct field behind an expression whose
// method is being called: s.Faults, b.S.CTEHits, stats.ClassBursts[c], and
// parenthesized forms.
func fieldOfStatExpr(info *types.Info, e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X) // ClassBursts[c].Inc(): the field is the array
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || statKindOf(v.Type()) == nil {
		return nil
	}
	return v
}
