package perfbench

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// SchemaVersion is the BENCH_*.json schema. Decode rejects anything else:
// a snapshot is a long-lived committed artifact, and a silent schema drift
// would poison every later comparison.
const SchemaVersion = 1

// Env stamps the toolchain a snapshot was taken with: allocation counts
// depend on the Go version and platform, not on the CPU.
type Env struct {
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Count     int    `json:"count"`
}

// CellResult is one cell's measurement.
type CellResult struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Design   string `json:"design"`
	Setting  string `json:"setting"`

	// Events is the deterministic simulated-event count; Insts the
	// committed instructions (a cross-check that the cell simulated the
	// same work, not just at the same speed).
	Events uint64 `json:"events"`
	Insts  uint64 `json:"instructions"`

	// Allocs/AllocBytes are the smallest repetition's heap allocation
	// count and bytes.
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"allocBytes"`

	// AllocsPerEvent is derived from Allocs and Events.
	AllocsPerEvent float64 `json:"allocsPerEvent"`
}

// derive fills the per-event dimension from the raw measurements.
func (c *CellResult) derive() {
	c.AllocsPerEvent = float64(c.Allocs) / float64(c.Events)
}

// Aggregate summarizes a group of cells (one design, or the whole suite).
type Aggregate struct {
	Design string `json:"design,omitempty"` // empty on the suite total
	Cells  int    `json:"cells"`

	Events uint64 `json:"events"`
	Allocs uint64 `json:"allocs"`

	AllocsPerEvent float64 `json:"allocsPerEvent"`
}

// Snapshot is one BENCH_<n>.json: the full measurement of the pinned suite.
type Snapshot struct {
	Schema    int    `json:"schema"`
	Suite     string `json:"suite"`
	CreatedAt string `json:"createdAt"`
	Env       Env    `json:"env"`

	Cells   []CellResult `json:"cells"`
	Designs []Aggregate  `json:"designs"`
	Total   Aggregate    `json:"total"`
}

// Finalize recomputes every derived field — per-cell allocs/event,
// per-design and total aggregates — from the raw cell measurements. Callers
// that build a snapshot by hand (tests, tools) must call it before Encode.
func (s *Snapshot) Finalize() {
	for i := range s.Cells {
		s.Cells[i].derive()
	}
	s.aggregate()
}

// aggregate recomputes the per-design and total summaries from Cells.
func (s *Snapshot) aggregate() {
	byDesign := map[string]*Aggregate{}
	var order []string
	total := Aggregate{}
	for i := range s.Cells {
		c := &s.Cells[i]
		a := byDesign[c.Design]
		if a == nil {
			a = &Aggregate{Design: c.Design}
			byDesign[c.Design] = a
			order = append(order, c.Design)
		}
		for _, t := range []*Aggregate{a, &total} {
			t.Cells++
			t.Events += c.Events
			t.Allocs += c.Allocs
		}
	}
	s.Designs = s.Designs[:0]
	for _, d := range order {
		a := byDesign[d]
		a.derive()
		s.Designs = append(s.Designs, *a)
	}
	total.derive()
	s.Total = total
}

// derive fills an aggregate's per-event dimension.
func (a *Aggregate) derive() {
	if a.Events > 0 {
		a.AllocsPerEvent = float64(a.Allocs) / float64(a.Events)
	}
}

// Encode serializes a snapshot (stable field order, indented — BENCH files
// are committed and reviewed as diffs).
func (s *Snapshot) Encode() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode parses and validates a snapshot. It returns an error — never
// panics — on malformed input: truncated JSON, wrong schema, missing
// cells, non-finite or negative dimensions, duplicate cell names. Keys a
// snapshot no longer carries, such as the wall-clock dimensions and CPU
// stamp of BENCH_1.json and BENCH_2.json, are ignored.
func Decode(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("perfbench: malformed snapshot: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the structural invariants every snapshot must satisfy.
func (s *Snapshot) Validate() error {
	if s.Schema != SchemaVersion {
		return fmt.Errorf("perfbench: unsupported schema %d (want %d)", s.Schema, SchemaVersion)
	}
	if s.Suite == "" {
		return fmt.Errorf("perfbench: snapshot missing suite version")
	}
	if len(s.Cells) == 0 {
		return fmt.Errorf("perfbench: snapshot has no cells")
	}
	seen := make(map[string]bool, len(s.Cells))
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.Name == "" {
			return fmt.Errorf("perfbench: cell %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("perfbench: duplicate cell %q", c.Name)
		}
		seen[c.Name] = true
		if c.Events == 0 {
			return fmt.Errorf("perfbench: cell %q has zero events", c.Name)
		}
		if v := c.AllocsPerEvent; math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("perfbench: cell %q has invalid allocsPerEvent %v", c.Name, v)
		}
	}
	if s.Total.Cells != len(s.Cells) {
		return fmt.Errorf("perfbench: total covers %d cells, snapshot has %d", s.Total.Cells, len(s.Cells))
	}
	return nil
}

// CellByName returns the named cell's result.
func (s *Snapshot) CellByName(name string) (CellResult, bool) {
	for _, c := range s.Cells {
		if c.Name == name {
			return c, true
		}
	}
	return CellResult{}, false
}

// SortedCellNames returns the snapshot's cell names, sorted.
func (s *Snapshot) SortedCellNames() []string {
	names := make([]string, 0, len(s.Cells))
	for _, c := range s.Cells {
		names = append(names, c.Name)
	}
	sort.Strings(names)
	return names
}
