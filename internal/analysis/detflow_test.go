package analysis

import (
	"strings"
	"testing"
)

// systemPkg wraps the fixture entry point: a RunE in a package with the
// internal/system suffix, calling into the sut package.
func systemPkg(body string) map[string]map[string]string {
	return map[string]map[string]string{
		"fix/internal/system": {"run.go": `package system

import "fix/internal/sut"

func RunE() error {
` + body + `
	return nil
}
`},
	}
}

func TestDetFlowWallClockReachable(t *testing.T) {
	src := `package sut

import "time"

func Simulate() { step() }

func step() { stamp() }

func stamp() { _ = time.Now() }
`
	findings := runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()")), DetFlow())
	wantFinding(t, findings, "time.Now", "deterministic zone", "reached via system.RunE -> sut.Simulate -> sut.step -> sut.stamp")
}

func TestDetFlowUnreachableIsExempt(t *testing.T) {
	// Only what the entry points reach is in the zone: a wall-clock read
	// in an unreachable internal/ function, or in a command (which may
	// print timestamps), is exempt.
	src := `package sut

import "time"

func Simulate() {}

func debugOnly() { _ = time.Now() }
`
	tool := map[string]map[string]string{
		"fix/cmd/tool": {"main.go": `package main

import "time"

func main() { println(time.Now().Unix()) }
`},
	}
	wantClean(t, runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()"), tool), DetFlow()))
}

func TestDetFlowNonDetOKBarrier(t *testing.T) {
	src := `package sut

import "time"

func Simulate() {
	profile()
}

// profile reads the wall clock by design.
//
//dylect:nondet-ok wall-clock profiling is quarantined and never feeds exports
func profile() { _ = time.Now() }
`
	wantClean(t, runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()")), DetFlow()))
}

func TestDetFlowNonDetOKNeedsReason(t *testing.T) {
	src := `package sut

import "time"

func Simulate() { profile() }

// profile reads the wall clock by design.
//
//dylect:nondet-ok
func profile() { _ = time.Now() }
`
	findings := runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()")), DetFlow())
	wantFinding(t, findings, "no reason", "sut.profile")
}

func TestDetFlowGoroutineReachable(t *testing.T) {
	src := `package sut

func Simulate() { fanOut() }

func fanOut() {
	go worker()
}

func worker() {}
`
	findings := runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()")), DetFlow())
	wantFinding(t, findings, "goroutine", "sut.fanOut", "deterministic zone")
}

func TestDetFlowGlobalRandReachable(t *testing.T) {
	src := `package sut

import "math/rand"

func Simulate() { _ = rand.Intn(8) }
`
	findings := runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()")), DetFlow())
	wantFinding(t, findings, "global rand.Intn", "deterministic zone")
}

func TestDetFlowSeededRandClean(t *testing.T) {
	src := `package sut

import "math/rand"

type gen struct{ r *rand.Rand }

func Simulate() {
	g := gen{r: rand.New(rand.NewSource(7))}
	_ = g.r.Intn(8)
}
`
	wantClean(t, runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()")), DetFlow()))
}

func TestDetFlowExportRootMapRange(t *testing.T) {
	harness := map[string]map[string]string{
		"fix/internal/harness": {"export.go": `package harness

type frame struct{ cells map[string]int }

func ExportJSON(f *frame) []string {
	var keys []string
	for k := range f.cells {
		keys = append(keys, k)
	}
	return keys
}
`},
	}
	findings := runOn(t, loadFixture(t, "package sut", harness), DetFlow())
	wantFinding(t, findings, "range over map", "harness.ExportJSON")
}

func TestDetFlowExportSortedMapRangeClean(t *testing.T) {
	harness := map[string]map[string]string{
		"fix/internal/harness": {"export.go": `package harness

import "sort"

type frame struct{ cells map[string]int }

func ExportJSON(f *frame) []string {
	var keys []string
	for k := range f.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
`},
	}
	wantClean(t, runOn(t, loadFixture(t, "package sut", harness), DetFlow()))
}

// The rules of the retired lexical analyzer, each applied to a function
// reached from the system.RunE root.

func TestDeterminismTimeNow(t *testing.T) {
	src := `package sut

import "time"

func Simulate() { _ = stamp() }

func stamp() int64 { return time.Now().UnixNano() }
`
	findings := runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()")), DetFlow())
	wantFinding(t, findings, "time.Now", "sut.stamp")
}

func TestDeterminismGlobalRand(t *testing.T) {
	src := `package sut

import "math/rand"

func Simulate() { _ = roll() }

func roll() int { return rand.Intn(6) }
`
	findings := runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()")), DetFlow())
	wantFinding(t, findings, "rand.Intn", "sut.roll")
}

func TestDeterminismSeededRandOK(t *testing.T) {
	src := `package sut

import "math/rand"

func Simulate() { _ = roll(7) }

func roll(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(6)
}
`
	wantClean(t, runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()")), DetFlow()))
}

func TestDeterminismSkipsNonInternal(t *testing.T) {
	// cmd/ packages may read the wall clock (progress reporting), even one
	// that calls into the deterministic zone: the zone runs forward from
	// the roots, never back up to their callers.
	src := `package sut

func Simulate() {}
`
	tool := map[string]map[string]string{
		"fix/cmd/tool": {"main.go": `package main

import (
	"time"

	"fix/internal/system"
)

func main() {
	start := time.Now()
	_ = system.RunE()
	println(time.Since(start).String())
}
`},
	}
	wantClean(t, runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()"), tool), DetFlow()))
}

func TestDeterminismMapRangeAppend(t *testing.T) {
	src := `package sut

func Simulate() { _ = keys(nil) }

func keys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
`
	findings := runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()")), DetFlow())
	wantFinding(t, findings, "map iteration order", "sut.keys")
}

func TestDeterminismMapRangePrint(t *testing.T) {
	src := `package sut

import "fmt"

func Simulate() { dump(nil) }

func dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`
	findings := runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()")), DetFlow())
	wantFinding(t, findings, "fmt.Println", "sut.dump")
}

func TestDeterminismMapRangeSortedOK(t *testing.T) {
	src := `package sut

import "sort"

func Simulate() { _ = keys(nil) }

func keys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
`
	wantClean(t, runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()")), DetFlow()))
}

func TestDeterminismMapRangeLoopLocalOK(t *testing.T) {
	// Appending to a slice declared inside the loop is per-iteration state:
	// iteration order cannot leak into it.
	src := `package sut

func Simulate() { _ = widths(nil) }

func widths(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		total += len(local)
	}
	return total
}
`
	wantClean(t, runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()")), DetFlow()))
}

func TestDeterminismCommutativeRangeOK(t *testing.T) {
	src := `package sut

func Simulate() { _ = sum(nil) }

func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
`
	wantClean(t, runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()")), DetFlow()))
}

// TestDetFlowExperimentsRootMapRange: the experiment renderers are a root,
// so a helper a renderer calls that appends from a map range without
// sorting is flagged, reached through the renderer's function literal.
func TestDetFlowExperimentsRootMapRange(t *testing.T) {
	harness := map[string]map[string]string{
		"fix/internal/harness": {"experiments.go": `package harness

type Experiment struct {
	Name   string
	Render func(cells map[string]int) []string
}

func Experiments() []Experiment {
	return []Experiment{{Name: "fig", Render: func(cells map[string]int) []string { return rows(cells) }}}
}

func rows(cells map[string]int) []string {
	var out []string
	for k := range cells {
		out = append(out, k)
	}
	return out
}
`},
	}
	findings := runOn(t, loadFixture(t, "package sut", harness), DetFlow())
	wantFinding(t, findings, "range over map", "harness.rows", "reached via harness.Experiments")
}

func TestDetFlowChainInMessage(t *testing.T) {
	src := `package sut

import "time"

func Simulate() { _ = time.Now() }
`
	findings := runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()")), DetFlow())
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "[reached via ") {
		t.Fatalf("want one finding with a witness chain, got %v", findings)
	}
}

func TestDetFlowTelemetryIsolationFires(t *testing.T) {
	// A simulator-core path into internal/telemetry is banned outright —
	// the violation carries the call chain from the core to the instrument.
	src := `package sut

import "fix/internal/telemetry"

var hits telemetry.Counter

func Simulate() { record() }

func record() { hits.Inc() }
`
	findings := runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()"), telemetryPkg()), DetFlow())
	wantFinding(t, findings, "internal/telemetry", "simulator core",
		"system.RunE -> sut.Simulate -> sut.record -> (*telemetry.Counter).Inc")
}

func TestDetFlowTelemetryFromServingLayerClean(t *testing.T) {
	// The serving layer instruments from outside the core: telemetry use
	// there (or anywhere not reachable from system/engine) is fine.
	src := `package sut

func Simulate() {}
`
	serve := map[string]map[string]string{
		"fix/internal/serve": {"serve.go": `package serve

import "fix/internal/telemetry"

var requests telemetry.Counter

func HandleRun() { requests.Inc() }
`},
	}
	wantClean(t, runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()"), serve, telemetryPkg()), DetFlow()))
}
