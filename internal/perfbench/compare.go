package perfbench

import (
	"fmt"
	"math"
	"strings"
)

// Thresholds configures when a dimension drift counts as a regression.
type Thresholds struct {
	// Allocs is the tolerated fractional growth of allocs/event. Allocation
	// counts are a deterministic property of the code (no clock involved),
	// so exceeding this always fails.
	Allocs float64
}

// DefaultThresholds tolerates 2% allocs/event drift.
func DefaultThresholds() Thresholds {
	return Thresholds{Allocs: 0.02}
}

// Severity grades a finding.
type Severity string

// Finding severities.
const (
	SeverityInfo Severity = "info"
	SeverityFail Severity = "fail"
)

// Finding is one detected drift between two snapshots.
type Finding struct {
	Scope    string // "total", "design:dylect", or "cell:<name>"
	Dim      string // "allocsPerEvent" or "events"
	Old, New float64
	Ratio    float64 // new/old
	Severity Severity
	Msg      string
}

// Report is the outcome of comparing two snapshots.
type Report struct {
	Old, New *Snapshot
	Findings []Finding
}

// Failed reports whether any finding is a hard failure.
func (r *Report) Failed() bool {
	for _, f := range r.Findings {
		if f.Severity == SeverityFail {
			return true
		}
	}
	return false
}

// Compare diffs two snapshots under the thresholds. Snapshots of different
// suite versions, or with different cell sets, are not comparable: the
// baseline must be refreshed instead.
func Compare(oldSnap, newSnap *Snapshot, th Thresholds) (*Report, error) {
	for _, s := range []*Snapshot{oldSnap, newSnap} {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	if oldSnap.Suite != newSnap.Suite {
		return nil, fmt.Errorf("perfbench: suite mismatch: baseline %q vs new %q; refresh the baseline",
			oldSnap.Suite, newSnap.Suite)
	}
	oldNames := strings.Join(oldSnap.SortedCellNames(), ",")
	newNames := strings.Join(newSnap.SortedCellNames(), ",")
	if oldNames != newNames {
		return nil, fmt.Errorf("perfbench: cell sets differ:\n  baseline: %s\n  new:      %s\nrefresh the baseline",
			oldNames, newNames)
	}
	r := &Report{Old: oldSnap, New: newSnap}

	// Event-count drift per cell is informational: an intentional model
	// change legitimately changes the event stream, but the reader should
	// know the per-event dimensions divide by different work.
	for _, oc := range oldSnap.Cells {
		nc, ok := newSnap.CellByName(oc.Name)
		if !ok {
			continue // unreachable after the name-set check
		}
		if nc.Events != oc.Events {
			r.Findings = append(r.Findings, Finding{
				Scope: "cell:" + oc.Name, Dim: "events",
				Old: float64(oc.Events), New: float64(nc.Events),
				Ratio: ratio(float64(nc.Events), float64(oc.Events)), Severity: SeverityInfo,
				Msg: fmt.Sprintf("simulated event count changed %d -> %d (model change?)", oc.Events, nc.Events),
			})
		}
	}

	r.checkAllocs("total", oldSnap.Total, newSnap.Total, th.Allocs)
	for _, od := range oldSnap.Designs {
		for _, nd := range newSnap.Designs {
			if od.Design == nd.Design {
				r.checkAllocs("design:"+od.Design, od, nd, th.Allocs)
			}
		}
	}
	return r, nil
}

// checkAllocs appends a failing finding when the scope's allocs/event grew
// past the tolerated fraction.
func (r *Report) checkAllocs(scope string, o, n Aggregate, tol float64) {
	oldV, newV := o.AllocsPerEvent, n.AllocsPerEvent
	if oldV <= 0 || math.IsNaN(oldV) || math.IsNaN(newV) || newV <= oldV*(1+tol) {
		return
	}
	r.Findings = append(r.Findings, Finding{
		Scope: scope, Dim: "allocsPerEvent", Old: oldV, New: newV,
		Ratio: ratio(newV, oldV), Severity: SeverityFail,
		Msg: fmt.Sprintf("%s allocsPerEvent regressed %.4g -> %.4g (%.2fx, tolerance %.0f%%)",
			scope, oldV, newV, ratio(newV, oldV), tol*100),
	})
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Render formats the report as the human-readable table the CLI prints.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "suite %s: baseline %s  vs  new %s\n", r.New.Suite, r.Old.CreatedAt, r.New.CreatedAt)
	fmt.Fprintf(&b, "%-16s %14s %14s %9s\n", "", "allocs/ev old", "allocs/ev new", "ratio")
	row := func(name string, o, n Aggregate) {
		fmt.Fprintf(&b, "%-16s %14.2f %14.2f %8.2fx\n",
			name, o.AllocsPerEvent, n.AllocsPerEvent, ratio(n.AllocsPerEvent, o.AllocsPerEvent))
	}
	row("total", r.Old.Total, r.New.Total)
	for _, od := range r.Old.Designs {
		for _, nd := range r.New.Designs {
			if od.Design == nd.Design {
				row(od.Design, od, nd)
			}
		}
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "[%s] %s\n", f.Severity, f.Msg)
	}
	return b.String()
}
