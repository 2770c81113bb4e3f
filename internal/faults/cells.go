package faults

import (
	"fmt"
	"strings"
	"sync"
)

// Harness-level fault injection: scripted cell panics, hangs, and transient
// errors for the experiment pool. The harness exposes a per-cell hook
// (Runner.SetCellHook) that runs at the top of every cell attempt; a
// CellInjector implements that hook from a deterministic script keyed on
// cell-key substrings.

// Transient is an error the harness may retry: it models the recoverable
// failure class (a flaky filesystem write, an interrupted worker) as
// opposed to deterministic simulator faults, which retrying cannot fix.
type Transient struct {
	Msg string
}

// Error implements error.
func (t Transient) Error() string { return t.Msg }

// Transient marks the error retryable for harness retry logic.
func (Transient) Transient() bool { return true }

// IsTransient reports whether err (or anything it wraps, through single or
// multi-error unwrapping) is marked transient via a `Transient() bool`
// method.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if t, ok := err.(interface{ Transient() bool }); ok && t.Transient() {
		return true
	}
	switch u := err.(type) {
	case interface{ Unwrap() error }:
		return IsTransient(u.Unwrap())
	case interface{ Unwrap() []error }:
		for _, e := range u.Unwrap() {
			if IsTransient(e) {
				return true
			}
		}
	}
	return false
}

// CellFaultKind enumerates the harness failure classes the pool must
// contain.
type CellFaultKind int

// The cell failure classes.
const (
	// CellPanic panics inside the cell's worker goroutine.
	CellPanic CellFaultKind = iota
	// CellHang blocks the cell until its Release channel closes (forever
	// when nil), exercising the watchdog.
	CellHang
	// CellTransient returns a Transient error, exercising retry.
	CellTransient
)

// String names the kind.
func (k CellFaultKind) String() string {
	switch k {
	case CellPanic:
		return "panic"
	case CellHang:
		return "hang"
	case CellTransient:
		return "transient"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// CellSpec scripts the failures injected into each matching cell.
type CellSpec struct {
	Kind CellFaultKind
	// Fail bounds how many attempts of each matching cell fail before that
	// cell succeeds; 0 means every attempt fails.
	Fail int
	// Release unblocks an injected hang when closed; nil hangs forever
	// (until the watchdog abandons the cell).
	Release <-chan struct{}
}

type cellRule struct {
	match string
	spec  CellSpec
	hits  int            // attempts over every matching cell
	cells map[string]int // attempts per cell key, which Fail bounds
}

// CellInjector scripts per-cell faults for the harness pool. Rules match on
// cell-key substrings (e.g. "omnetpp/tmcc/high"); the first matching rule
// fires. Safe for concurrent use by pool workers.
type CellInjector struct {
	mu    sync.Mutex
	rules []*cellRule
}

// NewCellInjector returns an empty injector.
func NewCellInjector() *CellInjector { return &CellInjector{} }

// Script adds a rule: cells whose key contains match suffer spec's fault.
func (ci *CellInjector) Script(match string, spec CellSpec) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	ci.rules = append(ci.rules, &cellRule{match: match, spec: spec, cells: map[string]int{}})
}

// Attempts reports how many attempts, over every matching cell, have hit
// the rule for match.
func (ci *CellInjector) Attempts(match string) int {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	for _, r := range ci.rules {
		if r.match == match {
			return r.hits
		}
	}
	return 0
}

// Hook is the harness cell hook: it injects the scripted fault for the
// given cell key, or returns nil for unmatched cells.
func (ci *CellInjector) Hook(cellKey string) error {
	ci.mu.Lock()
	var rule *cellRule
	for _, r := range ci.rules {
		if strings.Contains(cellKey, r.match) {
			rule = r
			break
		}
	}
	if rule == nil {
		ci.mu.Unlock()
		return nil
	}
	rule.hits++
	rule.cells[cellKey]++
	spec, attempt := rule.spec, rule.cells[cellKey]
	ci.mu.Unlock()

	if spec.Fail > 0 && attempt > spec.Fail {
		return nil // the cell's scripted failures are exhausted; it succeeds
	}
	switch spec.Kind {
	case CellPanic:
		panic(fmt.Sprintf("faults: injected panic in cell %s (attempt %d)", cellKey, attempt))
	case CellHang:
		if spec.Release == nil {
			select {} // hang forever; only the watchdog can abandon us
		}
		<-spec.Release
		return nil
	case CellTransient:
		return Transient{Msg: fmt.Sprintf("faults: injected transient failure (attempt %d)", attempt)}
	}
	return nil
}
