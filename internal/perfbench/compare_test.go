package perfbench

import (
	"encoding/json"
	"strings"
	"testing"
)

func findingFor(r *Report, scope, dim string) (Finding, bool) {
	for _, f := range r.Findings {
		if f.Scope == scope && f.Dim == dim {
			return f, true
		}
	}
	return Finding{}, false
}

func TestCompareCleanWhenIdentical(t *testing.T) {
	r, err := Compare(testSnapshot(1), testSnapshot(1), DefaultThresholds())
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if r.Failed() || len(r.Findings) != 0 {
		t.Fatalf("identical snapshots produced findings: %+v", r.Findings)
	}
}

func TestCompareImprovementIsClean(t *testing.T) {
	// Halving allocs is an improvement, never a finding.
	r, err := Compare(testSnapshot(1), testSnapshot(0.5), DefaultThresholds())
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(r.Findings) != 0 {
		t.Fatalf("improvement produced findings: %+v", r.Findings)
	}
}

func TestCompareAllocRegressionFails(t *testing.T) {
	oldSnap := testSnapshot(1)
	newSnap := testSnapshot(1)
	// Inflate one cell's allocs 10%, past the 2% alloc threshold.
	newSnap.Cells[0].Allocs = newSnap.Cells[0].Allocs * 11 / 10
	newSnap.Cells[0].derive()
	newSnap.aggregate()
	r, err := Compare(oldSnap, newSnap, DefaultThresholds())
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if !r.Failed() {
		t.Fatalf("alloc regression did not fail; findings: %+v", r.Findings)
	}
	f, ok := findingFor(r, "total", "allocsPerEvent")
	if !ok || f.Severity != SeverityFail {
		t.Fatalf("missing total allocsPerEvent fail finding: %+v", r.Findings)
	}
	// The regressed cell is a dylect cell, so the design scope fails too.
	if f, ok := findingFor(r, "design:dylect", "allocsPerEvent"); !ok || f.Severity != SeverityFail {
		t.Fatalf("missing design-scope alloc finding: %+v", r.Findings)
	}
	// The untouched design stays clean.
	if _, ok := findingFor(r, "design:tmcc", "allocsPerEvent"); ok {
		t.Fatalf("clean design flagged: %+v", r.Findings)
	}
}

// legacySnapshot encodes s with the wall-clock and CPU keys that
// BENCH_1.json and BENCH_2.json carry, each cell's wall time scaled by
// wallScale and the environment stamped with cpu.
func legacySnapshot(t *testing.T, s *Snapshot, wallScale float64, cpu string) []byte {
	t.Helper()
	data, err := s.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	env := doc["env"].(map[string]any)
	env["cpu"], env["numCPU"], env["gomaxprocs"] = cpu, 2, 2
	for _, c := range doc["cells"].([]any) {
		cell := c.(map[string]any)
		wall := wallScale * 1e6 * cell["events"].(float64)
		cell["wallNS"], cell["nsPerEvent"] = wall, wall/cell["events"].(float64)
	}
	for _, agg := range append(doc["designs"].([]any), doc["total"]) {
		a := agg.(map[string]any)
		a["wallNS"], a["cellsPerSec"], a["nsPerEvent"] = wallScale*1e9, 1/wallScale, wallScale*1e3
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompareTimeRegressionWarnsByDefault: wall-clock drift between two
// legacy snapshots, which still carry wall-clock keys, is no finding at
// all; perfbench gates deterministic counts only.
func TestCompareTimeRegressionWarnsByDefault(t *testing.T) {
	oldSnap, err := Decode(legacySnapshot(t, testSnapshot(1), 1, "testcpu"))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	newSnap, err := Decode(legacySnapshot(t, testSnapshot(1), 1.5, "testcpu"))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	r, err := Compare(oldSnap, newSnap, DefaultThresholds())
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(r.Findings) != 0 {
		t.Fatalf("wall-clock drift produced findings: %+v", r.Findings)
	}
}

// TestCompareDifferentEnvDowngradesTime: a legacy snapshot from another
// CPU, with double the wall time, compares clean against a fresh one, and
// the report says nothing about the environment.
func TestCompareDifferentEnvDowngradesTime(t *testing.T) {
	oldSnap, err := Decode(legacySnapshot(t, testSnapshot(1), 2, "othercpu"))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	r, err := Compare(oldSnap, testSnapshot(1), DefaultThresholds())
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(r.Findings) != 0 {
		t.Fatalf("cross-env wall drift produced findings: %+v", r.Findings)
	}
	if out := r.Render(); strings.Contains(out, "othercpu") || strings.Contains(out, "environment") {
		t.Fatalf("render mentions the environment:\n%s", out)
	}
}

func TestCompareAllocFailureSurvivesEnvChange(t *testing.T) {
	// allocs/event is deterministic: a different machine is no excuse.
	oldSnap := testSnapshot(1)
	newSnap := testSnapshot(1)
	newSnap.Env.GoVersion = "go1.99.0"
	for i := range newSnap.Cells {
		newSnap.Cells[i].Allocs *= 2
		newSnap.Cells[i].derive()
	}
	newSnap.aggregate()
	r, err := Compare(oldSnap, newSnap, DefaultThresholds())
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if !r.Failed() {
		t.Fatalf("alloc doubling on new env not failed: %+v", r.Findings)
	}
}

func TestCompareEventDriftIsInfo(t *testing.T) {
	oldSnap := testSnapshot(1)
	newSnap := testSnapshot(1)
	newSnap.Cells[0].Events += 5
	newSnap.Cells[0].derive()
	newSnap.aggregate()
	r, err := Compare(oldSnap, newSnap, DefaultThresholds())
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	f, ok := findingFor(r, "cell:"+newSnap.Cells[0].Name, "events")
	if !ok || f.Severity != SeverityInfo {
		t.Fatalf("event drift not recorded as info: %+v", r.Findings)
	}
}

func TestCompareRejectsMismatchedSuites(t *testing.T) {
	oldSnap := testSnapshot(1)
	newSnap := testSnapshot(1)
	newSnap.Suite = "pinned-v2"
	if _, err := Compare(oldSnap, newSnap, DefaultThresholds()); err == nil ||
		!strings.Contains(err.Error(), "suite mismatch") {
		t.Fatalf("suite mismatch not rejected: %v", err)
	}

	renamed := testSnapshot(1)
	renamed.Cells[0].Name = "omnetpp/dylect/high"
	renamed.aggregate()
	if _, err := Compare(oldSnap, renamed, DefaultThresholds()); err == nil ||
		!strings.Contains(err.Error(), "cell sets differ") {
		t.Fatalf("cell-set mismatch not rejected: %v", err)
	}
}

func TestSuiteIsPinnedAndWellFormed(t *testing.T) {
	cells := Suite()
	if len(cells) != 12 {
		t.Fatalf("suite has %d cells, want 12 (4 designs x 3 workloads)", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Name] {
			t.Fatalf("duplicate cell name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Seed != 0 || c.Window == 0 || c.WarmupAccesses == 0 {
			t.Fatalf("cell %q not fully pinned: %+v", c.Name, c)
		}
	}
	// Two calls must agree exactly — the suite is a constant.
	again := Suite()
	for i := range cells {
		if cells[i] != again[i] {
			t.Fatalf("Suite() not stable at index %d: %+v vs %+v", i, cells[i], again[i])
		}
	}
}
