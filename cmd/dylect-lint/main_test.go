package main

import (
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"dylect/internal/analysis"
)

func names(as []*analysis.Analyzer) string {
	var ns []string
	for _, a := range as {
		ns = append(ns, a.Name)
	}
	return strings.Join(ns, ",")
}

func TestSelectAnalyzersDefaultAll(t *testing.T) {
	as, err := selectAnalyzers("", "")
	if err != nil {
		t.Fatalf("selectAnalyzers: %v", err)
	}
	if len(as) != len(analysis.All()) {
		t.Fatalf("want all %d analyzers, got %q", len(analysis.All()), names(as))
	}
}

func TestSelectAnalyzersEnable(t *testing.T) {
	as, err := selectAnalyzers("timeunits, statcheck", "")
	if err != nil {
		t.Fatalf("selectAnalyzers: %v", err)
	}
	if got := names(as); got != "timeunits,statcheck" {
		t.Fatalf("want timeunits,statcheck, got %q", got)
	}
}

func TestSelectAnalyzersDisable(t *testing.T) {
	as, err := selectAnalyzers("", "exhaustive")
	if err != nil {
		t.Fatalf("selectAnalyzers: %v", err)
	}
	if got := names(as); strings.Contains(got, "exhaustive") || len(as) != len(analysis.All())-1 {
		t.Fatalf("exhaustive should be dropped, got %q", got)
	}
}

func TestSelectAnalyzersUnknown(t *testing.T) {
	if _, err := selectAnalyzers("nosuch", ""); err == nil {
		t.Fatal("want error for unknown -enable name")
	}
	if _, err := selectAnalyzers("", "nosuch"); err == nil {
		t.Fatal("want error for unknown -disable name")
	}
}

func TestSelectAnalyzersEmptySet(t *testing.T) {
	if _, err := selectAnalyzers("timeunits", "timeunits"); err == nil {
		t.Fatal("want error when every analyzer is disabled")
	}
}

func sampleFindings() []analysis.Finding {
	return []analysis.Finding{{
		Analyzer: "detflow",
		Position: token.Position{Filename: "a.go", Line: 3, Column: 7},
		Message:  "call to time.Now",
	}}
}

func TestWriteFindingsText(t *testing.T) {
	var b strings.Builder
	if err := writeFindings(&b, sampleFindings(), false); err != nil {
		t.Fatalf("writeFindings: %v", err)
	}
	want := "a.go:3:7: [detflow] call to time.Now\n"
	if b.String() != want {
		t.Fatalf("got %q, want %q", b.String(), want)
	}
}

func TestWriteFindingsJSON(t *testing.T) {
	var b strings.Builder
	if err := writeFindings(&b, sampleFindings(), true); err != nil {
		t.Fatalf("writeFindings: %v", err)
	}
	var decoded []analysis.Finding
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b.String())
	}
	if len(decoded) != 1 || decoded[0].Analyzer != "detflow" || decoded[0].Position.Line != 3 {
		t.Fatalf("round-trip mismatch: %+v", decoded)
	}
}

func TestWriteFindingsJSONEmptyIsArray(t *testing.T) {
	var b strings.Builder
	if err := writeFindings(&b, nil, true); err != nil {
		t.Fatalf("writeFindings: %v", err)
	}
	if got := strings.TrimSpace(b.String()); got != "[]" {
		t.Fatalf("empty findings must serialize as [], got %q", got)
	}
}
