package analysis

import (
	"strings"
	"testing"
)

func TestIgnoreUnknownAnalyzerName(t *testing.T) {
	src := `package sut

import "time"

func Simulate() { f() }

func f() int64 {
	//lint:ignore detlfow typo'd analyzer name
	return time.Now().Unix()
}
`
	findings := runOn(t, loadFixture(t, src, systemPkg("\tsut.Simulate()")), DetFlow())
	if len(findings) != 2 {
		t.Fatalf("want 2 findings (unknown name + unsuppressed time.Now), got %d: %v", len(findings), findings)
	}
	foundUnknown := false
	for _, f := range findings {
		if f.Analyzer == "lint" && strings.Contains(f.Message, `unknown analyzer "detlfow"`) {
			foundUnknown = true
		}
	}
	if !foundUnknown {
		t.Errorf("no unknown-analyzer finding: %v", findings)
	}
}

func TestAuditIgnoresLiveAndStale(t *testing.T) {
	src := `package sut

import "time"

func Simulate() { _ = live() + stale() }

func live() int64 {
	//lint:ignore detflow fixture: a live suppression
	return time.Now().Unix()
}

func stale() int64 {
	//lint:ignore detflow fixture: nothing fires here anymore
	return 42
}
`
	uses, findings := AuditIgnores(loadFixture(t, src, systemPkg("\tsut.Simulate()")))
	if len(uses) != 2 {
		t.Fatalf("want 2 suppressions listed, got %d: %v", len(uses), uses)
	}
	if len(uses[0].Stale) != 0 {
		t.Errorf("live suppression marked stale: %v", uses[0])
	}
	if len(uses[1].Stale) != 1 || uses[1].Stale[0] != "detflow" {
		t.Errorf("stale suppression not marked: %v", uses[1])
	}
	wantFinding(t, findings, "stale //lint:ignore", `"detflow"`, "delete the suppression")
}

func TestAuditIgnoresMalformedAndUnknown(t *testing.T) {
	src := `package sut

//lint:ignore detflow
func a() {}

func b() {
	//lint:ignore nosuchanalyzer some reason
	_ = 1
}
`
	uses, findings := AuditIgnores(loadFixture(t, src))
	if len(uses) != 2 {
		t.Fatalf("want 2 suppressions listed, got %d: %v", len(uses), uses)
	}
	if !uses[0].Malformed {
		t.Errorf("missing-reason directive not marked malformed: %v", uses[0])
	}
	var msgs []string
	for _, f := range findings {
		msgs = append(msgs, f.Message)
	}
	joined := strings.Join(msgs, " | ")
	if !strings.Contains(joined, "malformed //lint:ignore") {
		t.Errorf("no malformed finding in %q", joined)
	}
	if !strings.Contains(joined, `unknown analyzer "nosuchanalyzer"`) {
		t.Errorf("no unknown-analyzer finding in %q", joined)
	}
	// Unknown names are not additionally reported stale: the unknown
	// finding already demands the directive be fixed.
	if strings.Contains(joined, "stale") {
		t.Errorf("unknown name double-reported as stale: %q", joined)
	}
}

func TestAuditIgnoresAllWildcard(t *testing.T) {
	src := `package sut

import "time"

func Simulate() { _ = f(); g() }

func f() int64 {
	//lint:ignore all fixture: wildcard over a live finding
	return time.Now().Unix()
}

func g() {
	//lint:ignore all fixture: wildcard over nothing
	_ = 1
}
`
	uses, findings := AuditIgnores(loadFixture(t, src, systemPkg("\tsut.Simulate()")))
	if len(uses) != 2 {
		t.Fatalf("want 2 suppressions, got %v", uses)
	}
	if len(uses[0].Stale) != 0 {
		t.Errorf("live wildcard marked stale: %v", uses[0])
	}
	if len(uses[1].Stale) != 1 || uses[1].Stale[0] != "all" {
		t.Errorf("dead wildcard not marked stale: %v", uses[1])
	}
	wantFinding(t, findings, "stale")
}

func TestIgnoreUseString(t *testing.T) {
	uses, _ := AuditIgnores(loadFixture(t, `package sut

func f() {
	//lint:ignore detflow some reason
	_ = 1
}
`))
	if len(uses) != 1 {
		t.Fatalf("want 1 use, got %v", uses)
	}
	s := uses[0].String()
	for _, frag := range []string{"detflow", "some reason", "STALE"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q, missing %q", s, frag)
		}
	}
}
