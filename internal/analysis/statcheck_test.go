package analysis

import "testing"

func TestStatCheckWriteOnly(t *testing.T) {
	src := `package sut

import "fix/internal/stats"

type S struct {
	Hits stats.Counter
}

func (s *S) touch() { s.Hits.Inc() }
`
	wantFinding(t, runOn(t, loadFixture(t, src), StatCheck()), "write-only", "Hits")
}

func TestStatCheckExportOrphan(t *testing.T) {
	src := `package sut

import "fix/internal/stats"

type S struct {
	Hits stats.Counter
}

func (s *S) Rate() uint64 { return s.Hits.Value() }
`
	wantFinding(t, runOn(t, loadFixture(t, src), StatCheck()), "export-orphaned", "Hits")
}

func TestStatCheckDead(t *testing.T) {
	src := `package sut

import "fix/internal/stats"

type S struct {
	Hits stats.Counter
}

func (s *S) clear() { s.Hits.Reset() }
`
	wantFinding(t, runOn(t, loadFixture(t, src), StatCheck()), "dead counter")
}

func TestStatCheckBalancedOK(t *testing.T) {
	src := `package sut

import "fix/internal/stats"

type S struct {
	Hits stats.Counter
}

func (s *S) touch()       { s.Hits.Inc() }
func (s *S) Rate() uint64 { return s.Hits.Value() }
`
	wantClean(t, runOn(t, loadFixture(t, src), StatCheck()))
}

func TestStatCheckCrossPackage(t *testing.T) {
	// The increment and the read live in different packages — the whole
	// point of a program-wide pass.
	decl := `package sut

import "fix/internal/stats"

type S struct {
	Hits stats.Counter
}

func (s *S) Touch() { s.Hits.Inc() }
`
	reader := `package reader

import "fix/internal/sut"

func Rate(s *sut.S) uint64 { return s.Hits.Value() }
`
	prog := loadFixture(t, decl, map[string]map[string]string{
		"fix/internal/reader": {"reader.go": reader},
	})
	wantClean(t, runOn(t, prog, StatCheck()))
}

func TestStatCheckArrayFields(t *testing.T) {
	src := `package sut

import "fix/internal/stats"

type S struct {
	PerClass [4]stats.Counter
}

func (s *S) touch(c int) { s.PerClass[c].Inc() }
`
	wantFinding(t, runOn(t, loadFixture(t, src), StatCheck()), "write-only", "PerClass")
}

func TestStatCheckRegistryReadOK(t *testing.T) {
	// A sampled-only counter: incremented on the hot path and handed to
	// the metrics registry instead of exposing a Value() read. The
	// registration is its serialization path, so it is not write-only.
	src := `package sut

import (
	"fix/internal/metrics"
	"fix/internal/stats"
)

type S struct {
	Evictions stats.Counter
}

func (s *S) touch() { s.Evictions.Inc() }

func (s *S) RegisterMetrics(rec *metrics.Recorder) {
	rec.RegisterCounter("sut.evictions", &s.Evictions)
}
`
	wantClean(t, runOn(t, loadFixture(t, src), StatCheck()))
}

func TestStatCheckRegistryOnlyStillOrphaned(t *testing.T) {
	// Registration is a read path, not a write: a registered counter
	// nobody increments still samples as a misleading constant zero.
	src := `package sut

import (
	"fix/internal/metrics"
	"fix/internal/stats"
)

type S struct {
	Evictions stats.Counter
}

func (s *S) RegisterMetrics(rec *metrics.Recorder) {
	rec.RegisterCounter("sut.evictions", &s.Evictions)
}
`
	wantFinding(t, runOn(t, loadFixture(t, src), StatCheck()), "export-orphaned", "Evictions")
}

func TestStatCheckNonMetricsAddrNotARead(t *testing.T) {
	// Taking a counter's address for a call into any other package is
	// not a read — only the metrics registry implies sampling.
	src := `package sut

import "fix/internal/stats"

type S struct {
	Hits stats.Counter
}

func stash(c *stats.Counter) {}

func (s *S) touch() { s.Hits.Inc(); stash(&s.Hits) }
`
	wantFinding(t, runOn(t, loadFixture(t, src), StatCheck()), "write-only", "Hits")
}

func TestStatCheckArrayBalancedOK(t *testing.T) {
	src := `package sut

import "fix/internal/stats"

type S struct {
	PerClass [4]stats.Counter
}

func (s *S) touch(c int)        { s.PerClass[c].Inc() }
func (s *S) Total(c int) uint64 { return s.PerClass[c].Value() }
`
	wantClean(t, runOn(t, loadFixture(t, src), StatCheck()))
}

func TestStatCheckAccumulatorWriteOnly(t *testing.T) {
	// The shape of the DRAM model's old latency accumulator: observed on
	// every burst, read by nothing.
	src := `package sut

import "fix/internal/stats"

type S struct {
	Latency stats.Accumulator
}

func (s *S) touch(ns float64) { s.Latency.Observe(ns) }
`
	wantFinding(t, runOn(t, loadFixture(t, src), StatCheck()), "write-only accumulator", "Latency")
}

func TestStatCheckAccumulatorBalancedOK(t *testing.T) {
	// Observed in one package, its mean read in another.
	decl := `package sut

import "fix/internal/stats"

type S struct {
	Latency stats.Accumulator
}

func (s *S) Touch(ns float64) { s.Latency.Observe(ns) }
`
	reader := `package reader

import "fix/internal/sut"

func MeanNS(s *sut.S) float64 { return s.Latency.Mean() }
`
	prog := loadFixture(t, decl, map[string]map[string]string{
		"fix/internal/reader": {"reader.go": reader},
	})
	wantClean(t, runOn(t, prog, StatCheck()))
}
