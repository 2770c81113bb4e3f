package perfbench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSnapshot builds a small valid snapshot for the codec and compare
// tests. Scale multiplies the allocation dimensions, so two snapshots with
// different scales model an allocation change with identical simulated
// behavior.
func testSnapshot(scale float64) *Snapshot {
	s := &Snapshot{
		Schema:    SchemaVersion,
		Suite:     SuiteVersion,
		CreatedAt: "2026-01-02T03:04:05Z",
		Env:       Env{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", Count: 3},
	}
	cells := []struct {
		name, wl, design string
		events, allocs   uint64
	}{
		{"bfs/dylect/high", "bfs", "dylect", 120_000, 400_000},
		{"bfs/tmcc/high", "bfs", "tmcc", 90_000, 300_000},
		{"mcf/dylect/high", "mcf", "dylect", 150_000, 500_000},
	}
	for _, c := range cells {
		cr := CellResult{
			Name: c.name, Workload: c.wl, Design: c.design, Setting: "high",
			Events: c.events, Insts: c.events * 10,
			Allocs:     uint64(float64(c.allocs) * scale),
			AllocBytes: uint64(float64(c.allocs)*scale) * 48,
		}
		cr.derive()
		s.Cells = append(s.Cells, cr)
	}
	s.aggregate()
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := testSnapshot(1)
	data, err := s.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	// The round trip must preserve every field bit-for-bit: re-encoding
	// yields identical bytes.
	data2, err := got.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if string(data) != string(data2) {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", data, data2)
	}
}

func TestMeasuredSuiteRoundTrips(t *testing.T) {
	// One real (tiny) cell end-to-end: Measure -> Encode -> Decode.
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	cells := Suite()[:1]
	cells[0].WarmupAccesses = 2000
	cells[0].Window = 2_000_000 // 2us
	snap, err := Measure(cells, Options{Count: 2})
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Total.Events == 0 || got.Total.AllocsPerEvent <= 0 {
		t.Fatalf("degenerate measured totals: %+v", got.Total)
	}
	if got.Env.GoVersion == "" || got.Env.Count != 2 {
		t.Fatalf("environment not stamped: %+v", got.Env)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good := testSnapshot(1)
	cases := map[string]func(*Snapshot){
		"wrong schema":   func(s *Snapshot) { s.Schema = 99 },
		"no suite":       func(s *Snapshot) { s.Suite = "" },
		"no cells":       func(s *Snapshot) { s.Cells = nil; s.Total = Aggregate{} },
		"unnamed cell":   func(s *Snapshot) { s.Cells[0].Name = "" },
		"duplicate cell": func(s *Snapshot) { s.Cells[1].Name = s.Cells[0].Name },
		"zero events":    func(s *Snapshot) { s.Cells[0].Events = 0 },
		"nan dim":        func(s *Snapshot) { s.Cells[0].AllocsPerEvent = math.NaN() },
		"inf dim":        func(s *Snapshot) { s.Cells[0].AllocsPerEvent = math.Inf(1) },
		"negative dim":   func(s *Snapshot) { s.Cells[0].AllocsPerEvent = -1 },
		"total mismatch": func(s *Snapshot) { s.Total.Cells = 7 },
	}
	for name, mutate := range cases {
		s := testSnapshot(1)
		mutate(s)
		data, err := json.Marshal(s)
		if err != nil {
			// NaN/Inf do not survive Marshal; validate directly instead.
			if verr := s.Validate(); verr == nil {
				t.Errorf("%s: Validate accepted mutant", name)
			}
			continue
		}
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted mutant", name)
		}
	}
	// Raw garbage bytes.
	for _, raw := range []string{"", "{", "null", "[]", `{"schema":1}`, "\xff\xfe"} {
		if _, err := Decode([]byte(raw)); err == nil {
			t.Errorf("Decode accepted %q", raw)
		}
	}
	// Sanity: the unmutated snapshot still decodes.
	data, err := good.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("good snapshot rejected: %v", err)
	}
}

// FuzzDecode drives the snapshot parser and the comparator with arbitrary
// bytes: both must return errors on junk, never panic. The corpus seeds a
// valid snapshot so mutations explore the schema's neighborhood.
func FuzzDecode(f *testing.F) {
	seed, err := testSnapshot(1).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("{}"))
	f.Add([]byte(`{"schema":1,"suite":"pinned-v1","cells":[{"name":"x","events":1,"wallNS":1}],"total":{"cells":1}}`))
	base := testSnapshot(1)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode and compare cleanly
		// (Compare may reject it for suite mismatch; it must not panic).
		if _, err := s.Encode(); err != nil {
			t.Fatalf("decoded snapshot failed to encode: %v", err)
		}
		_, _ = Compare(base, s, DefaultThresholds())
		_, _ = Compare(s, s, DefaultThresholds())
	})
}

// TestRenderMentionsSpeedup: the report is an allocs/event table per
// design with no wall-clock column and no speedup line.
func TestRenderMentionsSpeedup(t *testing.T) {
	oldSnap, newSnap := testSnapshot(1), testSnapshot(0.5)
	r, err := Compare(oldSnap, newSnap, DefaultThresholds())
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	out := r.Render()
	for _, want := range []string{"allocs/ev old", "total", "dylect", "tmcc", "0.50x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"speedup", "cells/sec", "ns/ev"} {
		if strings.Contains(out, gone) {
			t.Fatalf("render still mentions %q:\n%s", gone, out)
		}
	}
}

// TestCommittedBaselinesDecode: the committed snapshots, written when
// snapshots still carried wall-clock keys, decode and compare clean
// against themselves, and a fresh snapshot carries none of those keys.
func TestCommittedBaselinesDecode(t *testing.T) {
	for _, name := range []string{"BENCH_1.json", "BENCH_2.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		s, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r, err := Compare(s, s, DefaultThresholds())
		if err != nil || len(r.Findings) != 0 {
			t.Fatalf("%s against itself: %v %+v", name, err, r)
		}
	}
	data, err := testSnapshot(1).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"wallNS", "nsPerEvent", "cellsPerSec", "cpu", "numCPU", "gomaxprocs"} {
		if strings.Contains(string(data), `"`+key+`"`) {
			t.Fatalf("fresh snapshot carries %q:\n%s", key, data)
		}
	}
}
