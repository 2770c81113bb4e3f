package analysis

import (
	"strings"
	"testing"
)

// Fixture packages standing in for the real engine and stats packages: the
// analyzers identify them by import-path suffix, so a test module path
// works exactly like the real one.
const (
	fixtureEnginePath = "fix/internal/engine"
	fixtureStatsPath  = "fix/internal/stats"

	fixtureEngineSrc = `package engine

type Time uint64

const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
)

type Engine struct{ now Time }

func (e *Engine) Now() Time                     { return e.now }
func (e *Engine) Schedule(d Time, fn func())    {}
func (e *Engine) ScheduleAt(at Time, fn func()) {}
func (e *Engine) ObserveAt(at Time, fn func())  {}
`

	fixtureStatsSrc = `package stats

type Counter struct{ n uint64 }

func (c *Counter) Inc()          { c.n++ }
func (c *Counter) Add(d uint64)  { c.n += d }
func (c *Counter) Value() uint64 { return c.n }
func (c *Counter) Reset()        { c.n = 0 }

type Accumulator struct{ n, sum float64 }

func (a *Accumulator) Observe(v float64) { a.n++; a.sum += v }
func (a *Accumulator) Sum() float64      { return a.sum }
func (a *Accumulator) Mean() float64     { return a.sum / a.n }
`

	fixtureMetricsPath = "fix/internal/metrics"
	fixtureMetricsSrc  = `package metrics

import "fix/internal/stats"

type Recorder struct{ counters []*stats.Counter }

func (r *Recorder) RegisterCounter(name string, c *stats.Counter) {
	r.counters = append(r.counters, c)
}
`

	fixtureTelemetryPath = "fix/internal/telemetry"
	fixtureTelemetrySrc  = `package telemetry

type Counter struct{ n uint64 }

func (c *Counter) Inc() { c.n++ }
`
)

// telemetryPkg is the service-telemetry fixture, passed as a loadFixture
// extra by the tests that exercise the telemetry isolation boundary.
func telemetryPkg() map[string]map[string]string {
	return map[string]map[string]string{
		fixtureTelemetryPath: {"telemetry.go": fixtureTelemetrySrc},
	}
}

// loadFixture type-checks an in-memory program consisting of the fixture
// engine/stats packages plus one package under test at path
// "fix/internal/sut" with the given source.
func loadFixture(t *testing.T, src string, extra ...map[string]map[string]string) *Program {
	t.Helper()
	pkgs := map[string]map[string]string{
		fixtureEnginePath:  {"engine.go": fixtureEngineSrc},
		fixtureStatsPath:   {"stats.go": fixtureStatsSrc},
		fixtureMetricsPath: {"metrics.go": fixtureMetricsSrc},
		"fix/internal/sut": {"sut.go": src},
	}
	for _, m := range extra {
		for path, files := range m {
			pkgs[path] = files
		}
	}
	prog, err := LoadSource(pkgs)
	if err != nil {
		t.Fatalf("LoadSource: %v", err)
	}
	return prog
}

// runOn runs one analyzer over the program and returns the findings.
func runOn(t *testing.T, prog *Program, a *Analyzer) []Finding {
	t.Helper()
	return RunAnalyzers(prog, []*Analyzer{a})
}

// wantFinding asserts exactly one finding whose message contains each
// fragment.
func wantFinding(t *testing.T, findings []Finding, fragments ...string) {
	t.Helper()
	if len(findings) != 1 {
		t.Fatalf("want exactly 1 finding, got %d: %v", len(findings), findings)
	}
	for _, frag := range fragments {
		if !strings.Contains(findings[0].Message, frag) {
			t.Errorf("finding %q does not mention %q", findings[0].Message, frag)
		}
	}
}

// wantClean asserts no findings.
func wantClean(t *testing.T, findings []Finding) {
	t.Helper()
	if len(findings) != 0 {
		t.Fatalf("want no findings, got %d: %v", len(findings), findings)
	}
}

func TestByName(t *testing.T) {
	for _, a := range All() {
		got, ok := ByName(a.Name)
		if !ok || got.Name != a.Name {
			t.Errorf("ByName(%q) = %v, %v", a.Name, got, ok)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
}

func TestIgnoreSuppression(t *testing.T) {
	src := `package sut

import "time"

func Simulate() { standalone(); trailing(); unsuppressed(); wrongAnalyzer() }

func standalone() int64 {
	//lint:ignore detflow fixture exercises standalone suppression
	return time.Now().Unix()
}

func trailing() int64 {
	return time.Now().Unix() //lint:ignore detflow fixture exercises trailing suppression
}

func unsuppressed() int64 {
	return time.Now().Unix()
}

func wrongAnalyzer() int64 {
	//lint:ignore timeunits wrong analyzer listed
	return time.Now().Unix()
}
`
	prog := loadFixture(t, src, systemPkg("\tsut.Simulate()"))
	findings := runOn(t, prog, DetFlow())
	if len(findings) != 2 {
		t.Fatalf("want 2 findings (unsuppressed + wrongAnalyzer), got %d: %v", len(findings), findings)
	}
}

func TestIgnoreMalformed(t *testing.T) {
	src := `package sut

//lint:ignore detflow
func f() {}
`
	prog := loadFixture(t, src)
	findings := runOn(t, prog, DetFlow())
	wantFinding(t, findings, "malformed")
	if findings[0].Analyzer != "lint" {
		t.Errorf("malformed directive attributed to %q, want lint", findings[0].Analyzer)
	}
}

func TestIgnoreAll(t *testing.T) {
	src := `package sut

import "time"

func Simulate() { f() }

func f() int64 {
	//lint:ignore all fixture exercises the all wildcard
	return time.Now().Unix()
}
`
	wantClean(t, runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()")), DetFlow()))
}
