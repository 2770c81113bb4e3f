package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dylect/internal/perfbench"
)

// benchSnapshot fabricates a valid snapshot file on disk. allocScale
// inflates the allocation dimensions relative to the baseline shape.
func benchSnapshot(t *testing.T, dir, name string, allocScale float64) string {
	t.Helper()
	s := &perfbench.Snapshot{
		Schema:    perfbench.SchemaVersion,
		Suite:     perfbench.SuiteVersion,
		CreatedAt: "2026-01-02T03:04:05Z",
		Env:       perfbench.Env{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", Count: 3},
		Cells: []perfbench.CellResult{
			{
				Name: "bfs/dylect/high", Workload: "bfs", Design: "dylect", Setting: "high",
				Events: 100_000, Insts: 1_000_000,
				Allocs: uint64(200_000 * allocScale), AllocBytes: uint64(200_000*allocScale) * 48,
			},
			{
				Name: "bfs/tmcc/high", Workload: "bfs", Design: "tmcc", Setting: "high",
				Events: 80_000, Insts: 800_000,
				Allocs: uint64(160_000 * allocScale), AllocBytes: uint64(160_000*allocScale) * 48,
			},
		},
	}
	s.Finalize()
	data, err := s.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestListPrintsSuite(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"bfs/dylect/high", "canneal/nocomp/none", "mcf/tmcc/high", "seed=0"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output missing %q:\n%s", want, out.String())
		}
	}
}

func TestCompareCleanExitsZero(t *testing.T) {
	dir := t.TempDir()
	a := benchSnapshot(t, dir, "a.json", 1)
	b := benchSnapshot(t, dir, "b.json", 0.9) // leaner
	var out, errb strings.Builder
	if code := run([]string{"-compare", a, b}, &out, &errb); code != 0 {
		t.Fatalf("clean compare exited %d:\n%s%s", code, out.String(), errb.String())
	}
	for _, want := range []string{"allocs/ev", "dylect", "tmcc"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "speedup") || strings.Contains(out.String(), "cells/sec") {
		t.Fatalf("report still carries wall-clock output:\n%s", out.String())
	}
}

func TestCompareAllocRegressionExitsNonzero(t *testing.T) {
	// The acceptance gate: feeding an artificially regressed snapshot must
	// make the tool exit nonzero.
	dir := t.TempDir()
	a := benchSnapshot(t, dir, "a.json", 1)
	b := benchSnapshot(t, dir, "b.json", 1.10) // +10% allocs/event
	var out, errb strings.Builder
	code := run([]string{"-compare", a, b}, &out, &errb)
	if code != 1 {
		t.Fatalf("regressed compare exited %d, want 1:\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "FAIL") {
		t.Fatalf("missing FAIL notice:\n%s", errb.String())
	}
	if !strings.Contains(out.String(), "allocsPerEvent") {
		t.Fatalf("report does not name the regressed dimension:\n%s", out.String())
	}
}

// TestCompareTimeRegressionWarnsUnlessEscalated: the wall-clock gate is
// gone, so -fail-on-time is an unknown flag.
func TestCompareTimeRegressionWarnsUnlessEscalated(t *testing.T) {
	dir := t.TempDir()
	a := benchSnapshot(t, dir, "a.json", 1)
	var out, errb strings.Builder
	if code := run([]string{"-compare", "-fail-on-time", a, a}, &out, &errb); code != 2 {
		t.Fatalf("-fail-on-time exited %d, want 2:\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "flag provided but not defined: -fail-on-time") {
		t.Fatalf("missing unknown-flag notice:\n%s", errb.String())
	}
}

// TestCompareThresholdFlag: -threshold, the wall-clock tolerance, is an
// unknown flag; -allocs-threshold sets the allocs/event tolerance.
func TestCompareThresholdFlag(t *testing.T) {
	dir := t.TempDir()
	a := benchSnapshot(t, dir, "a.json", 1)
	var out, errb strings.Builder
	if code := run([]string{"-compare", "-threshold", "0.25", a, a}, &out, &errb); code != 2 {
		t.Fatalf("-threshold exited %d, want 2:\n%s%s", code, out.String(), errb.String())
	}
	// Loose alloc threshold tolerates small alloc growth.
	c := benchSnapshot(t, dir, "c.json", 1.04)
	out.Reset()
	errb.Reset()
	if code := run([]string{"-compare", "-allocs-threshold", "0.05", a, c}, &out, &errb); code != 0 {
		t.Fatalf("within-alloc-threshold exited %d:\n%s%s", code, out.String(), errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-compare", "-allocs-threshold", "0.01", a, c}, &out, &errb); code != 1 {
		t.Fatalf("past-alloc-threshold exited %d, want 1:\n%s%s", code, out.String(), errb.String())
	}
}

func TestCompareBadInputsExitTwo(t *testing.T) {
	dir := t.TempDir()
	a := benchSnapshot(t, dir, "a.json", 1)
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-compare", a}, // missing second file
		{"-compare", a, filepath.Join(dir, "absent.json")}, // unreadable
		{"-compare", a, bad},      // malformed
		{"unexpected-positional"}, // measure mode takes no args
	}
	for _, args := range cases {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Fatalf("args %v exited %d, want 2:\n%s", args, code, errb.String())
		}
	}
}
