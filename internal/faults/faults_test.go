package faults

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// fakeTarget records injections without a real controller.
type fakeTarget struct{ calls []string }

func (f *fakeTarget) NumUnits() uint64 { return 1024 }
func (f *fakeTarget) InjectLevelCorruption(u uint64) string {
	s := fmt.Sprintf("level:%d", u%1024)
	f.calls = append(f.calls, s)
	return s
}
func (f *fakeTarget) InjectShortCTECorruption(u uint64) string {
	s := fmt.Sprintf("short:%d", u%1024)
	f.calls = append(f.calls, s)
	return s
}
func (f *fakeTarget) InjectFreeFrameLeak() (string, bool) {
	f.calls = append(f.calls, "leak")
	return "leak", true
}
func (f *fakeTarget) InjectTableDesync(u uint64) string {
	s := fmt.Sprintf("table:%d", u%1024)
	f.calls = append(f.calls, s)
	return s
}

func TestPlanCoversEveryClassDeterministically(t *testing.T) {
	a, b := NewPlan(42), NewPlan(42)
	if len(a.Ops) != len(Classes()) {
		t.Fatalf("plan has %d ops for %d classes", len(a.Ops), len(Classes()))
	}
	seen := map[Class]bool{}
	for i, op := range a.Ops {
		seen[op.Class] = true
		if op != b.Ops[i] {
			t.Fatalf("same seed produced different op %d: %+v vs %+v", i, op, b.Ops[i])
		}
		if op.AtFrac <= 0 || op.AtFrac >= 1 {
			t.Fatalf("op %d outside the window interior: %+v", i, op)
		}
	}
	for _, c := range Classes() {
		if !seen[c] {
			t.Fatalf("class %s missing from default plan", c)
		}
	}
	c := NewPlan(43)
	same := true
	for i := range a.Ops {
		if a.Ops[i].Unit != c.Ops[i].Unit {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds chose identical target units")
	}
}

func TestPlanApplyRecordsInjections(t *testing.T) {
	p := NewPlan(7)
	tgt := &fakeTarget{}
	for _, op := range p.Ops {
		if desc := p.Apply(tgt, op); desc == "" {
			t.Fatalf("op %+v was a no-op", op)
		}
	}
	applied := p.Applied()
	if len(applied) != len(p.Ops) {
		t.Fatalf("recorded %d of %d injections", len(applied), len(p.Ops))
	}
	for i, op := range p.Ops {
		if !strings.HasPrefix(applied[i], op.Class.String()+": ") {
			t.Fatalf("record %d missing class prefix: %s", i, applied[i])
		}
	}
	if len(tgt.calls) != len(p.Ops) {
		t.Fatalf("target saw %d calls", len(tgt.calls))
	}
}

func TestTransientDetection(t *testing.T) {
	err := Transient{Msg: "flaky"}
	if !IsTransient(err) {
		t.Fatal("Transient not detected")
	}
	if !IsTransient(fmt.Errorf("cell x: %w", err)) {
		t.Fatal("wrapped Transient not detected")
	}
	if IsTransient(errors.New("deterministic")) {
		t.Fatal("plain error misclassified as transient")
	}
	if IsTransient(nil) {
		t.Fatal("nil misclassified as transient")
	}
}

// TestCellInjectorFailBudgetIsPerCell: a rule's Fail bounds each matching
// cell's failed attempts, so a broad match fails the first attempt of every
// cell it takes, not only the first attempt among them all.
func TestCellInjectorFailBudgetIsPerCell(t *testing.T) {
	ci := NewCellInjector()
	ci.Script("omnetpp/", CellSpec{Kind: CellTransient, Fail: 1})
	for _, cell := range []string{"omnetpp/tmcc/high", "omnetpp/dylect/high"} {
		if err := ci.Hook(cell); !IsTransient(err) {
			t.Errorf("%s: first attempt returned %v, want the scripted transient failure", cell, err)
		}
		if err := ci.Hook(cell); err != nil {
			t.Errorf("%s: second attempt failed past the cell's budget: %v", cell, err)
		}
	}
	if got := ci.Attempts("omnetpp/"); got != 4 {
		t.Errorf("Attempts = %d, want 4 over both cells", got)
	}
}

// TestCellInjectorPool proves the injector covers every harness failure
// class: panic, hang, and transient error, with bounded Fail counts.
func TestCellInjectorPool(t *testing.T) {
	ci := NewCellInjector()
	release := make(chan struct{})
	ci.Script("a/tmcc", CellSpec{Kind: CellPanic, Fail: 1})
	ci.Script("b/dylect", CellSpec{Kind: CellHang, Fail: 1, Release: release})
	ci.Script("c/naive", CellSpec{Kind: CellTransient, Fail: 2})

	// Panic class: first attempt panics, second succeeds.
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("scripted panic did not fire")
			}
			if !strings.Contains(fmt.Sprint(p), "a/tmcc/high") {
				t.Fatalf("panic missing cell key: %v", p)
			}
		}()
		ci.Hook("a/tmcc/high")
	}()
	if err := ci.Hook("a/tmcc/high"); err != nil {
		t.Fatalf("panic budget not exhausted: %v", err)
	}
	if got := ci.Attempts("a/tmcc"); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}

	// Hang class: blocks until released.
	done := make(chan error, 1)
	go func() { done <- ci.Hook("b/dylect/low") }()
	select {
	case <-done:
		t.Fatal("hang returned before release")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("released hang errored: %v", err)
	}

	// Transient class: Fail attempts fail, then success; wrapped errors
	// stay transient.
	for i := 0; i < 2; i++ {
		err := ci.Hook("c/naive/high")
		if err == nil || !IsTransient(err) {
			t.Fatalf("attempt %d: want transient, got %v", i+1, err)
		}
	}
	if err := ci.Hook("c/naive/high"); err != nil {
		t.Fatalf("transient budget not exhausted: %v", err)
	}

	// Unmatched cells are untouched.
	if err := ci.Hook("other/nocomp/none"); err != nil {
		t.Fatalf("unmatched cell failed: %v", err)
	}
}
