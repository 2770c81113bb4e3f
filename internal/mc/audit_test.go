package mc

import (
	"strings"
	"testing"

	"dylect/internal/comp"
	"dylect/internal/dram"
	"dylect/internal/engine"
	"dylect/internal/invariant"
)

// groupedBase builds a Base with DyLeCT tables and an explicit group size so
// ML0 promotion (and short-CTE slot checks) can be exercised.
func groupedBase(t *testing.T) *Base {
	t.Helper()
	eng := engine.New()
	d := dram.NewController(eng, dram.DDR4(1, 1, 96))
	return NewBase(Params{
		Eng: eng, DRAM: d,
		OSBytes:          16 << 20,
		SizeModel:        comp.NewSizeModel(1, 3.4),
		FreeTargetBytes:  1 << 20,
		WithDyLeCTTables: true,
		GroupSize:        4,
	})
}

// checksOf indexes an audit report by check name.
func checksOf(vs []invariant.Violation) map[string][]invariant.Violation {
	m := make(map[string][]invariant.Violation)
	for _, v := range vs {
		m[v.Check] = append(m[v.Check], v)
	}
	return m
}

// requireCheck asserts the report contains a violation of the named check,
// optionally pinned to a unit, and returns it.
func requireCheck(t *testing.T, vs []invariant.Violation, check string, unit int64) invariant.Violation {
	t.Helper()
	for _, v := range vs {
		if v.Check == check && (unit == invariant.None || v.Unit == unit) {
			return v
		}
	}
	t.Fatalf("no %s violation for unit %d in report: %v", check, unit, vs)
	return invariant.Violation{}
}

func TestAuditCleanInitialState(t *testing.T) {
	for _, dy := range []bool{false, true} {
		b, _, _ := testBase(t, dy)
		if vs := b.AuditInvariants(); len(vs) != 0 {
			t.Fatalf("fresh base (dylect=%v) not clean: %v", dy, vs)
		}
	}
}

func TestAuditCleanAfterFunctionalChurn(t *testing.T) {
	b := groupedBase(t)
	b.SetFunctional(true)
	// Expand a spread of units (ML2→ML1), promote some to ML0, demote one
	// back, and trigger pressure compression — the full level round trip.
	for u := uint64(0); u < 64; u += 7 {
		b.ExpandUnit(u, nil)
	}
	for u := uint64(0); u < 64; u += 14 {
		b.TryPromote(u, 0)
	}
	b.DemoteToML1(0)
	b.CheckPressure()
	if vs := b.AuditInvariants(); len(vs) != 0 {
		t.Fatalf("churned base not clean: %v", vs)
	}
}

// TestAuditTolerantOfInFlightExpansion pins the one legal transient: a frame
// reserved by a timed expansion is allocated but unowned until the
// decompression latency elapses, and must not be reported as leaked.
func TestAuditTolerantOfInFlightExpansion(t *testing.T) {
	b, eng, _ := testBase(t, false)
	b.ExpandUnit(3, nil) // timed path: finish() is scheduled, not run
	if vs := b.AuditInvariants(); len(vs) != 0 {
		t.Fatalf("mid-expansion audit not clean: %v", vs)
	}
	eng.Run()
	if vs := b.AuditInvariants(); len(vs) != 0 {
		t.Fatalf("post-expansion audit not clean: %v", vs)
	}
}

func TestAuditDetectsLevelCorruptionCompressed(t *testing.T) {
	b, _, _ := testBase(t, false)
	desc := b.InjectLevelCorruption(5) // ML2 → ML1 without migration
	vs := b.AuditInvariants()
	if len(vs) == 0 {
		t.Fatalf("corruption undetected: %s", desc)
	}
	// The phantom ML1 unit sits in (or crosses) chunk-carved space: the
	// auditor must name unit 5 in at least one violation.
	requireCheck(t, vs, vs[0].Check, 5)
}

func TestAuditDetectsLevelCorruptionUncompressed(t *testing.T) {
	b, _, _ := testBase(t, false)
	b.SetFunctional(true)
	b.ExpandUnit(8, nil)
	desc := b.InjectLevelCorruption(8) // ML1 → ML2 without compression
	vs := b.AuditInvariants()
	if len(vs) == 0 {
		t.Fatalf("corruption undetected: %s", desc)
	}
	cs := checksOf(vs)
	if len(cs[CheckOwnerDesync]) == 0 && len(cs[CheckResidentDesync]) == 0 {
		t.Fatalf("expected owner/resident desync, got: %v", vs)
	}
	requireCheck(t, vs, CheckResidentDesync, 8)
}

func TestAuditDetectsStaleShortCTE(t *testing.T) {
	b, _, _ := testBase(t, false)
	b.InjectShortCTECorruption(7) // ML2 unit gets a live-looking short CTE
	requireCheck(t, b.AuditInvariants(), CheckShortCTEStale, 7)
}

// TestAuditDetectsWrongUnitClass: CompressUnit sizes the chunk from the
// stored class, so a class that disagrees with the size model is reported,
// whatever the unit's level.
func TestAuditDetectsWrongUnitClass(t *testing.T) {
	b, _, _ := testBase(t, false)
	b.SetFunctional(true)
	b.ExpandUnit(3, nil)
	for _, u := range []uint64{3, 7} {
		b.units[u].class ^= 1
		requireCheck(t, b.AuditInvariants(), CheckUnitClass, int64(u))
		b.units[u].class ^= 1
	}
	if vs := b.AuditInvariants(); len(vs) != 0 {
		t.Fatalf("restored classes still reported: %v", vs)
	}
}

func TestAuditDetectsWrongShortCTESlot(t *testing.T) {
	b := groupedBase(t)
	b.SetFunctional(true)
	var ml0 uint64
	found := false
	for u := uint64(0); u < 64 && !found; u++ {
		b.ExpandUnit(u, nil)
		if b.TryPromote(u, 0) {
			ml0, found = u, true
		}
	}
	if !found {
		t.Fatal("no unit promoted to ML0")
	}
	desc := b.InjectShortCTECorruption(ml0) // rotate to the wrong group slot
	if !strings.Contains(desc, "short CTE") {
		t.Fatalf("unexpected injection: %s", desc)
	}
	requireCheck(t, b.AuditInvariants(), CheckShortCTESlot, int64(ml0))
}

func TestAuditDetectsFreeFrameLeak(t *testing.T) {
	b, _, _ := testBase(t, false)
	desc, ok := b.InjectFreeFrameLeak()
	if !ok {
		t.Fatalf("no free frame to leak: %s", desc)
	}
	requireCheck(t, b.AuditInvariants(), CheckFreeFrameLeak, invariant.None)
}

func TestAuditDetectsTableDesyncCompressed(t *testing.T) {
	b, _, _ := testBase(t, false)
	b.InjectTableDesync(9) // drop ML2 unit 9 from its residents list
	vs := b.AuditInvariants()
	requireCheck(t, vs, CheckResidentDesync, 9)
	// Dropping a live chunk also breaks the frame's exact tiling.
	requireCheck(t, vs, CheckChunkCoverage, invariant.None)
}

func TestAuditDetectsTableDesyncUncompressed(t *testing.T) {
	b, _, _ := testBase(t, false)
	b.SetFunctional(true)
	b.ExpandUnit(11, nil)
	b.InjectTableDesync(11) // clear the frame's owner under a live ML1 unit
	vs := b.AuditInvariants()
	requireCheck(t, vs, CheckOwnerDesync, 11)
	requireCheck(t, vs, CheckFreeFrameLeak, invariant.None)
}

// TestAuditViolationNamesUnitAndFrame checks the structured-error contract:
// violations carry the offending unit/frame and render them.
func TestAuditViolationNamesUnitAndFrame(t *testing.T) {
	b, _, _ := testBase(t, false)
	b.InjectTableDesync(9)
	v := requireCheck(t, b.AuditInvariants(), CheckResidentDesync, 9)
	if v.Frame == invariant.None {
		t.Fatalf("violation missing frame: %+v", v)
	}
	s := v.String()
	if !strings.Contains(s, CheckResidentDesync) || !strings.Contains(s, "unit 9") {
		t.Fatalf("violation rendering incomplete: %s", s)
	}
	err := &invariant.Error{Phase: "test", Violations: []invariant.Violation{v}}
	if !err.Has(CheckResidentDesync) || !strings.Contains(err.Error(), "test") {
		t.Fatalf("error rendering incomplete: %v", err)
	}
}
