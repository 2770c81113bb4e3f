// Package invariant defines the runtime invariant-auditing vocabulary shared
// by the memory-controller designs and the experiment harness: structured
// Violation records naming the offending unit/frame, a Report accumulator the
// per-design audit walks fill in, and an Error that carries a failed audit
// through the harness's cell-error path.
//
// The audits themselves live next to the state they check (internal/mc's
// AuditInvariants and the design-specific hooks in internal/tmcc etc.); this
// package stays a leaf so every layer — mc, system, harness, faults — can
// speak the same violation type without import cycles.
package invariant

import (
	"fmt"
	"strings"
)

// None marks a Violation field (Unit, Frame) that does not apply.
const None int64 = -1

// Violation is one invariant breach found by an audit walk. Unit and Frame
// identify the offending state (None when not applicable) so a failure names
// exactly what broke, not just that something did.
type Violation struct {
	// Check is the invariant's stable name, e.g. "level-exclusivity",
	// "short-cte-slot", "free-frame-leak", "owner-desync".
	Check string
	// Unit is the offending translation unit, or None.
	Unit int64
	// Frame is the offending machine frame, or None.
	Frame int64
	// Detail is a human-readable explanation of the breach.
	Detail string
}

// String renders the violation compactly: check name, unit/frame, detail.
func (v Violation) String() string {
	var sb strings.Builder
	sb.WriteString(v.Check)
	if v.Unit != None {
		fmt.Fprintf(&sb, " unit %d", v.Unit)
	}
	if v.Frame != None {
		fmt.Fprintf(&sb, " frame %d", v.Frame)
	}
	if v.Detail != "" {
		sb.WriteString(": ")
		sb.WriteString(v.Detail)
	}
	return sb.String()
}

// Report accumulates violations during one audit walk. The zero value is
// ready to use.
type Report struct {
	Violations []Violation
}

// Addf records a violation with a formatted detail string.
func (r *Report) Addf(check string, unit, frame int64, format string, args ...interface{}) {
	r.Violations = append(r.Violations, Violation{
		Check:  check,
		Unit:   unit,
		Frame:  frame,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Auditable is implemented by translators whose internal state can be
// audited (all designs built on mc.Base). The walk must be read-only: it
// runs inside timed simulation windows and must not perturb results.
type Auditable interface {
	AuditInvariants() []Violation
}

// maxShown bounds how many violations an Error renders; the rest are
// summarized so a mass corruption does not produce megabyte error strings.
const maxShown = 4

// Error carries a failed audit as a structured error: the phase it fired in
// (post-warmup, periodic-N, final), and every violation found.
type Error struct {
	// Phase names when the audit ran: "post-warmup", "periodic-1", "final".
	Phase string
	// Violations is the full list, first occurrence first.
	Violations []Violation
}

// Error implements error, naming the offending units/frames of the first
// few violations.
func (e *Error) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "invariant audit (%s): %d violation(s)", e.Phase, len(e.Violations))
	n := len(e.Violations)
	if n > maxShown {
		n = maxShown
	}
	for i := 0; i < n; i++ {
		sb.WriteString("; ")
		sb.WriteString(e.Violations[i].String())
	}
	if len(e.Violations) > maxShown {
		fmt.Fprintf(&sb, "; and %d more", len(e.Violations)-maxShown)
	}
	return sb.String()
}

// Has reports whether any violation matches the named check.
func (e *Error) Has(check string) bool {
	for _, v := range e.Violations {
		if v.Check == check {
			return true
		}
	}
	return false
}
