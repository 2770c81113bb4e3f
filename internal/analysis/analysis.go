// Package analysis is a self-contained static-analysis framework for the
// DyLeCT simulator, in the spirit of go/analysis but built only on the
// standard library (go/parser, go/ast, go/types). It exists because the
// repository's numbers are only as trustworthy as its invariants: the event
// engine runs in integer picoseconds to avoid drift, results must be
// bit-reproducible run to run, and every stats counter that is incremented
// must also surface in serialized output. Each Analyzer encodes one such
// invariant; cmd/dylect-lint drives them over the whole module and CI gates
// on a clean run.
//
// Analyzers are whole-program: Run receives a *Program holding every loaded
// package (type-checked, in dependency order) so cross-package checks like
// statcheck (a counter incremented in internal/mc but serialized in
// internal/system) need no fact plumbing.
//
// Diagnostics can be suppressed at the source line with
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed on the offending line or on the line directly above it. The reason
// is mandatory; a bare ignore is itself reported.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding, positioned by token.Pos inside the Program's
// FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name is the stable identifier used in -enable/-disable flags and
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description of the invariant enforced.
	Doc string
	// Run inspects the whole program and returns findings.
	Run func(*Program) []Diagnostic
}

// Finding is a resolved diagnostic ready for output.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Position token.Position `json:"position"`
	Message  string         `json:"message"`
}

// String renders a finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Position, f.Analyzer, f.Message)
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		TimeUnits(),
		Schedule(),
		StatCheck(),
		Exhaustive(),
		CtxFlow(),
		ObsPure(),
		HotAlloc(),
		DetFlow(),
	}
}

// ByName returns the analyzer with the given name.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range All() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// RunAnalyzers runs the given analyzers over the program, resolves
// positions, filters suppressed findings, and returns the rest sorted by
// file, line, column, analyzer. Malformed //lint:ignore directives and
// ones naming unknown analyzers are reported alongside (see ignores.go).
func RunAnalyzers(prog *Program, analyzers []*Analyzer) []Finding {
	ignores, findings := collectIgnores(prog)
	for _, a := range analyzers {
		for _, d := range a.Run(prog) {
			f := Finding{
				Analyzer: a.Name,
				Position: prog.Fset.Position(d.Pos),
				Message:  d.Message,
			}
			if suppressed(ignores, f) {
				continue
			}
			findings = append(findings, f)
		}
	}
	sortFindings(findings)
	return findings
}

// sortFindings orders findings by file, line, column, analyzer.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		switch {
		case a.Position.Filename != b.Position.Filename:
			return a.Position.Filename < b.Position.Filename
		case a.Position.Line != b.Position.Line:
			return a.Position.Line < b.Position.Line
		case a.Position.Column != b.Position.Column:
			return a.Position.Column < b.Position.Column
		default:
			return a.Analyzer < b.Analyzer
		}
	})
}
