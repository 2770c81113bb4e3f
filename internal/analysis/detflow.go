package analysis

// DetFlow enforces bit-reproducible simulation interprocedurally:
// non-deterministic constructs are forbidden anywhere *reachable from* the
// simulation and export entry points. Roots are
//
//   - system.Run / system.RunE (one simulated cell, end to end), plus the
//     shared-warmup phases Machine.WarmupRecorded and Machine.Restore, which
//     the harness sequences in place of RunE's live warmup;
//   - harness.Experiments, whose renderers turn cell results into tables;
//   - the Export* surface of internal/harness (byte-identical artifacts
//     are the repo's determinism oracle);
//   - the cell payload codec: harness's encodeCellPayload and
//     cellstore.EncodeEnvelope, whose bytes the store and the fabric
//     checksum and compare.
//
// Forbidden in the reachable zone: time.Now/time.Since (wall clock),
// global math/rand (process-global source; seeded constructors are fine),
// goroutine spawns (scheduling order leaks into event order), and
// map-range loops feeding ordered output. Map iteration order is
// randomized per run; a range over a map whose body appends to a slice or
// prints builds order-dependent state from order-undefined input. The
// canonical safe pattern — collect keys, sort, then use — is recognized: a
// range whose enclosing function sorts after the loop is not flagged.
//
// A path that is scheduling or profiling by design — the runner's cell
// executor, whose watchdog goroutine and wall-clock profile sit around the
// simulation — is excluded with a //dylect:nondet-ok <reason> doc
// directive, which acts as a traversal barrier: the annotated function and
// everything reachable only through it are exempt. The reason is mandatory
// — an unexplained barrier is itself a finding.
//
// DetFlow also enforces the telemetry isolation boundary: nothing in
// internal/system or internal/engine may reach internal/telemetry. The
// service telemetry layer observes the simulator through hooks installed
// from the outside (serving layer, harness settlement callbacks); a
// simulator-core dependency on it would invert that direction and open a
// channel for service state to leak into simulated results. Violations
// carry the full call chain as a witness.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetFlow returns the interprocedural determinism analyzer.
func DetFlow() *Analyzer {
	return &Analyzer{
		Name: "detflow",
		Doc:  "forbid wall-clock, global rand, goroutines, and unsorted map iteration anywhere reachable from simulation/export entry points",
		Run:  runDetFlow,
	}
}

func runDetFlow(prog *Program) []Diagnostic {
	g := BuildCallGraph(prog)
	var diags []Diagnostic
	// Barrier annotations must carry a reason.
	for _, n := range g.Nodes {
		if n.NonDetOK && n.NonDetReason == "" {
			diags = append(diags, Diagnostic{
				Pos:     n.Pos(),
				Message: fmt.Sprintf("//dylect:nondet-ok on %s has no reason: write //dylect:nondet-ok <why this path may be non-deterministic>", n.Name),
			})
		}
	}
	diags = append(diags, telemetryIsolation(g, prog)...)
	roots := detRoots(g)
	if len(roots) == 0 {
		return diags
	}
	reach := g.ReachableWhere(func(n *Node) bool { return n.NonDetOK }, roots...)
	reported := make(map[token.Pos]bool)
	for _, n := range reach.Nodes() {
		if isTestFile(prog.Fset.Position(n.Pos()).Filename) {
			continue
		}
		for _, d := range scanDetNode(n) {
			if reported[d.Pos] {
				continue
			}
			reported[d.Pos] = true
			d.Message += fmt.Sprintf(" [reached via %s]", reach.Chain(n))
			diags = append(diags, d)
		}
	}
	return diags
}

// telemetryIsolation reports every internal/telemetry function reachable
// from a function declared in internal/system or internal/engine. The ban
// is absolute — no //dylect:nondet-ok barrier applies, because this is a
// dependency-direction invariant, not a quarantinable behavior: the
// simulator core must stay oblivious to the service's metric surface so
// telemetry can never influence simulated results.
func telemetryIsolation(g *CallGraph, prog *Program) []Diagnostic {
	var roots []*Node
	for _, n := range g.Nodes {
		if pathHasSuffix(n.Pkg.Path, "internal/system") || pathHasSuffix(n.Pkg.Path, "internal/engine") {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	reach := g.Reachable(roots...)
	var diags []Diagnostic
	reported := make(map[token.Pos]bool)
	for _, n := range reach.Nodes() {
		if !pathHasSuffix(n.Pkg.Path, "internal/telemetry") || reported[n.Pos()] {
			continue
		}
		if isTestFile(prog.Fset.Position(n.Pos()).Filename) {
			continue
		}
		reported[n.Pos()] = true
		diags = append(diags, Diagnostic{
			Pos: n.Pos(),
			Message: fmt.Sprintf(
				"%s (internal/telemetry) is reachable from the simulator core (%s): internal/system and internal/engine must not depend on service telemetry; instrument from the serving layer's hooks instead",
				n.Name, reach.Chain(n)),
		})
	}
	return diags
}

// detRoots collects the deterministic-zone entry points: system.Run/RunE,
// the shared-warmup phases, the experiment renderers, the harness Export*
// surface, and the cell payload codec.
func detRoots(g *CallGraph) []*Node {
	var roots []*Node
	for _, n := range g.Nodes {
		if n.Obj == nil {
			continue
		}
		name := n.Obj.Name()
		switch {
		case (name == "Run" || name == "RunE" || name == "WarmupRecorded" || name == "Restore") &&
			fromPkg(n.Obj, "internal/system"):
			roots = append(roots, n)
		case (strings.HasPrefix(name, "Export") || name == "Experiments" || name == "encodeCellPayload") &&
			fromPkg(n.Obj, "internal/harness"):
			roots = append(roots, n)
		case name == "EncodeEnvelope" && fromPkg(n.Obj, "internal/cellstore"):
			roots = append(roots, n)
		}
	}
	return roots
}

// scanDetNode flags the non-deterministic constructs lexically inside one
// node's body. Nested function literals are separate nodes: if reachable
// they are scanned on their own, and if not (never referenced on a
// reachable path) they are exempt, so their subtrees are skipped here.
func scanDetNode(n *Node) []Diagnostic {
	var diags []Diagnostic
	var litSpans [][2]token.Pos
	ast.Inspect(n.Body(), func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit:
			litSpans = append(litSpans, [2]token.Pos{x.Pos(), x.End()})
			return false
		case *ast.GoStmt:
			diags = append(diags, Diagnostic{
				Pos:     x.Pos(),
				Message: fmt.Sprintf("goroutine spawned in %s inside the deterministic zone: scheduling order would leak into event order; simulation is single-threaded by design", n.Name),
			})
		case *ast.CallExpr:
			obj := calleeOf(n.Pkg.Info, x)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if obj.Name() == "Now" || obj.Name() == "Since" {
					diags = append(diags, Diagnostic{
						Pos:     x.Pos(),
						Message: fmt.Sprintf("time.%s in %s inside the deterministic zone: wall clock breaks byte-identical exports; use engine simulated time, or quarantine with //dylect:nondet-ok", obj.Name(), n.Name),
					})
				}
			case "math/rand", "math/rand/v2":
				if _, isFunc := obj.(*types.Func); isFunc && obj.Parent() == obj.Pkg().Scope() &&
					!globalRandAllowed[obj.Name()] {
					diags = append(diags, Diagnostic{
						Pos:     x.Pos(),
						Message: fmt.Sprintf("global rand.%s in %s inside the deterministic zone: the process-global source is unseeded; use a per-component rand.New(rand.NewSource(seed))", obj.Name(), n.Name),
					})
				}
			}
		}
		return true
	})
	// Map-range checks look for a sort after the loop in the whole body,
	// then drop hits inside nested literals (their own scan covers them when
	// reachable).
	for _, d := range checkMapRanges(n.Pkg, n.Body()) {
		inLit := false
		for _, span := range litSpans {
			if d.Pos >= span[0] && d.Pos < span[1] {
				inLit = true
				break
			}
		}
		if !inLit {
			d.Message = fmt.Sprintf("%s (in %s, inside the deterministic zone)", d.Message, n.Name)
			diags = append(diags, d)
		}
	}
	return diags
}

// globalRandAllowed lists math/rand top-level functions that do not touch
// the global source: constructors for explicitly seeded generators.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// checkMapRanges flags map-range loops in body that append or print inside
// the loop without a subsequent sort in the same function body.
func checkMapRanges(pkg *Package, body *ast.BlockStmt) []Diagnostic {
	type flagged struct {
		pos token.Pos
		end token.Pos
		why string
	}
	var candidates []flagged
	var sortCalls []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if obj := calleeOf(pkg.Info, n); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sort" {
				sortCalls = append(sortCalls, n.Pos())
			}
		case *ast.RangeStmt:
			t := pkg.Info.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if why, bad := orderedSideEffect(pkg.Info, n); bad {
				candidates = append(candidates, flagged{pos: n.Pos(), end: n.End(), why: why})
			}
		}
		return true
	})
	var diags []Diagnostic
	for _, c := range candidates {
		sorted := false
		for _, sp := range sortCalls {
			if sp > c.end {
				sorted = true
				break
			}
		}
		if sorted {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:     c.pos,
			Message: fmt.Sprintf("range over map %s: map iteration order is randomized per run; sort the keys first or key the output", c.why),
		})
	}
	return diags
}

// orderedSideEffect reports whether the loop body builds ordered state from
// iteration order: appends to a slice declared outside the loop, or emits
// output via fmt printers. Appending to a loop-local slice is order-safe —
// each iteration rebuilds it from scratch.
func orderedSideEffect(info *types.Info, loop *ast.RangeStmt) (string, bool) {
	var why string
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "append" &&
				len(call.Args) > 0 && !declaredWithin(info, call.Args[0], loop) {
				why = "appends to a slice"
				return false
			}
		}
		if obj := calleeOf(info, call); obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "fmt" && isPrinter(obj.Name()) {
			why = fmt.Sprintf("writes output via fmt.%s", obj.Name())
			return false
		}
		return true
	})
	return why, why != ""
}

// declaredWithin reports whether e is an identifier whose object is
// declared inside the loop (including its Key/Value), making per-iteration
// state.
func declaredWithin(info *types.Info, e ast.Expr, loop *ast.RangeStmt) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	return obj != nil && obj.Pos() >= loop.Pos() && obj.Pos() < loop.End()
}

// isPrinter reports fmt functions that emit to a stream (Sprint* builds a
// value and is judged by what the caller does with it, so it is exempt).
func isPrinter(name string) bool {
	switch name {
	case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
		return true
	}
	return false
}
