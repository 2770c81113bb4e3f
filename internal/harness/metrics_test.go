package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dylect/internal/engine"
	"dylect/internal/metrics"
	"dylect/internal/system"
)

// The observability exports must obey the same discipline as ExportJSON:
// deterministic bytes regardless of worker-pool width, byte-identical
// deterministic exports whether metrics are on or off, and exact
// reproduction across a checkpoint resume.

func obsConfig(withMetrics bool) Config {
	cfg := Config{
		Workloads:      []string{"bfs"},
		ScaleDivisor:   32,
		WarmupAccesses: 20000,
		Window:         30 * engine.Microsecond,
	}
	if withMetrics {
		cfg.MetricsSamples = 8
		cfg.Trace = true
	}
	return cfg
}

// obsExperiment touches a small cross-design cell set.
func obsExperiment() Experiment {
	return Experiment{
		Name: "obs-test", Title: "observability test cells",
		Run: func(r *Runner) []string {
			r.Baseline("bfs")
			r.Design("bfs", system.DesignTMCC, system.SettingLow)
			r.Design("bfs", system.DesignDyLeCT, system.SettingLow)
			return []string{"ok"}
		},
	}
}

func runObs(t *testing.T, cfg Config, jobs int, cp *Checkpoint) *Runner {
	t.Helper()
	r := NewRunner(cfg)
	if cp != nil {
		r.AttachCheckpoint(cp)
	}
	if _, err := RunExperiments(r, []Experiment{obsExperiment()}, ExecOptions{Jobs: jobs}); err != nil {
		t.Fatalf("run experiments: %v", err)
	}
	return r
}

func TestMetricsDoNotChangeExportJSON(t *testing.T) {
	off := runObs(t, obsConfig(false), 1, nil)
	offJSON, err := off.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 8} {
		on := runObs(t, obsConfig(true), jobs, nil)
		onJSON, err := on.ExportJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(offJSON, onJSON) {
			t.Errorf("jobs=%d: enabling metrics changed the deterministic export", jobs)
		}
	}
}

func TestMetricsExportsIdenticalAcrossJobs(t *testing.T) {
	r1 := runObs(t, obsConfig(true), 1, nil)
	r8 := runObs(t, obsConfig(true), 8, nil)

	nd1, err := r1.ExportMetricsNDJSON()
	if err != nil {
		t.Fatal(err)
	}
	nd8, err := r8.ExportMetricsNDJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nd1, nd8) {
		t.Error("metrics NDJSON differs between jobs=1 and jobs=8")
	}
	if len(nd1) == 0 {
		t.Fatal("metrics NDJSON is empty")
	}

	tr1, err := r1.ExportTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	tr8, err := r8.ExportTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tr1, tr8) {
		t.Error("trace JSON differs between jobs=1 and jobs=8")
	}

	// Every NDJSON line must parse and carry a cell tag plus sample index.
	lines := strings.Split(strings.TrimSpace(string(nd1)), "\n")
	cells := map[string]int{}
	for _, line := range lines {
		var row MetricsRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if row.Cell == "" || row.Key == "" {
			t.Fatalf("line missing cell identity: %q", line)
		}
		cells[row.Cell]++
	}
	// Three cells, eight samples each.
	if len(cells) != 3 {
		t.Errorf("cells in NDJSON = %v, want 3 distinct", cells)
	}
	for c, n := range cells {
		if n != 8 {
			t.Errorf("cell %s has %d samples, want 8", c, n)
		}
	}
}

func TestCheckpointResumeReproducesMetrics(t *testing.T) {
	cfg := obsConfig(true)
	dir := t.TempDir()

	cp1, err := OpenCheckpoint(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := runObs(t, cfg, 4, cp1)
	firstND, err := first.ExportMetricsNDJSON()
	if err != nil {
		t.Fatal(err)
	}
	firstTrace, err := first.ExportTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	if cp1.StoreStats().Puts == 0 {
		t.Fatal("first run stored no cells")
	}

	cp2, err := OpenCheckpoint(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second := NewRunner(cfg)
	second.AttachCheckpoint(cp2)
	src := countSources(second)
	if _, err := RunExperiments(second, []Experiment{obsExperiment()}, ExecOptions{Jobs: 4}); err != nil {
		t.Fatalf("run experiments: %v", err)
	}
	// A store settlement is a record that decoded, metrics included: a
	// record that verified but failed to decode would re-simulate.
	if src.n[SourceStore] == 0 {
		t.Fatal("resume loaded no cells from the store")
	}
	secondND, err := second.ExportMetricsNDJSON()
	if err != nil {
		t.Fatal(err)
	}
	secondTrace, err := second.ExportTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(firstND, secondND) {
		t.Error("resumed run's metrics NDJSON differs from the original")
	}
	if !bytes.Equal(firstTrace, secondTrace) {
		t.Error("resumed run's trace JSON differs from the original")
	}
}

func TestExportProfileJSON(t *testing.T) {
	r := runObs(t, obsConfig(false), 2, nil)
	data, err := r.ExportProfileJSON()
	if err != nil {
		t.Fatal(err)
	}
	var rows []ProfileRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("profile export is not valid JSON: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("profile rows = %d, want 3", len(rows))
	}
	for _, row := range rows {
		if row.Cell == "" || row.Key == "" {
			t.Errorf("profile row missing cell identity: %+v", row)
		}
		if row.WallMS <= 0 {
			t.Errorf("cell %s has non-positive wall time %v", row.Cell, row.WallMS)
		}
	}
}

// TestSettlementWallIsExecutionTime: a settled cell's WallNS is its
// execution time, the time it held a worker slot, not its wait for the
// slot. At jobs 1 the cells hold the one slot in turn, so their wall times
// sum to no more than the run's.
func TestSettlementWallIsExecutionTime(t *testing.T) {
	r := NewRunner(tinySharedConfig("omnetpp"))
	var wall atomic.Int64
	r.SetCellTelemetry(func(s CellSettlement) { wall.Add(s.WallNS) })
	start := time.Now()
	if _, err := RunExperiments(r, experimentsNamed(t, "fig18", "fig3"), ExecOptions{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if sum := time.Duration(wall.Load()); sum > elapsed {
		t.Errorf("settled cells' wall times sum to %v in a %v run at jobs 1: they count the wait for a worker slot", sum, elapsed)
	}
}

func TestTraceDocParsesAsChromeTrace(t *testing.T) {
	r := runObs(t, obsConfig(true), 2, nil)
	data, err := r.ExportTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc metrics.TraceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace export has no events")
	}
	pids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" && e.Ph != "C" && e.Ph != "i" {
			t.Fatalf("unexpected phase %q", e.Ph)
		}
		pids[e.Pid] = true
	}
	if len(pids) != 3 {
		t.Errorf("trace process tracks = %d, want 3 (one per cell)", len(pids))
	}
}
