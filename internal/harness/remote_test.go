package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"dylect/internal/system"
)

// TestCellSpecRoundTrip proves CellSpec is a lossless wire form of runKey:
// every planned cell of every experiment survives key -> spec -> JSON ->
// spec -> key unchanged.
func TestCellSpecRoundTrip(t *testing.T) {
	cfg := Quick()
	var exps []Experiment
	for _, name := range Names() {
		e, _ := ByName(name)
		exps = append(exps, e)
	}
	keys := planCells(cfg, exps)
	if len(keys) == 0 {
		t.Fatal("no cells planned")
	}
	for _, k := range keys {
		spec := specOf(k)
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var back CellSpec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		k2, err := back.runKey()
		if err != nil {
			t.Fatalf("spec of %s does not parse back: %v", k, err)
		}
		if k2 != k {
			t.Fatalf("round trip changed the key: %s -> %s", k, k2)
		}
	}
	// Bad specs are rejected, not mapped onto some default cell.
	for _, bad := range []CellSpec{
		{Workload: "omnetpp", Design: "warp-drive", Setting: "high"},
		{Workload: "omnetpp", Design: "tmcc", Setting: "sideways"},
		{Design: "tmcc", Setting: "high"},
	} {
		if _, err := bad.runKey(); err == nil {
			t.Errorf("spec %+v parsed; want rejection", bad)
		}
	}
}

// TestCellKeyFieldCoverage holds CellSpec's promise that every runKey
// field participates. Each field, the variant's included, has one mutator
// that changes only that field, and the mutated key must survive the wire
// spec and change the store file name and the export's key columns and
// sort position. A key field without a mutator fails the test, so a new
// knob cannot be added to the key without a wire and store identity:
// otherwise two cells would share one spec and one store address, and a
// cluster merge would be silently wrong.
func TestCellKeyFieldCoverage(t *testing.T) {
	mutators := map[string]func(*runKey){
		"workload":      func(k *runKey) { k.workload = "mcf" },
		"design":        func(k *runKey) { k.design = system.DesignTMCC },
		"setting":       func(k *runKey) { k.setting = system.SettingLow },
		"hugePages":     func(k *runKey) { k.hugePages = !k.hugePages },
		"cteCacheBytes": func(k *runKey) { k.cteCacheBytes *= 2 },
		"granularity":   func(k *runKey) { k.granularity *= 2 },
		"groupSize":     func(k *runKey) { k.groupSize++ },
		"perfectCTE":    func(k *runKey) { k.perfectCTE = !k.perfectCTE },
		"ranks":         func(k *runKey) { k.ranks++ },
		"embedPTB":      func(k *runKey) { k.embedPTB = !k.embedPTB },
		"directToML0":   func(k *runKey) { k.directToML0 = !k.directToML0 },
		"samplePeriod":  func(k *runKey) { k.samplePeriod++ },
	}
	base := runKey{workload: "omnetpp", design: system.DesignDyLeCT, setting: system.SettingHigh,
		variant: NewRunner(microConfig()).normalize(defaultVariant())}
	res := &system.Result{}
	fields := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(base)) {
		if f.Anonymous {
			continue // the embedded variant; its fields are visited one by one
		}
		fields++
		mutate, ok := mutators[f.Name]
		if !ok {
			t.Errorf("runKey field %s has no mutator: add one, and carry the field in CellSpec, fileKey, RawResult and lessRaw", f.Name)
			continue
		}
		k := base
		mutate(&k)
		for _, g := range reflect.VisibleFields(reflect.TypeOf(base)) {
			same := reflect.ValueOf(k).FieldByIndex(g.Index).Equal(reflect.ValueOf(base).FieldByIndex(g.Index))
			if !g.Anonymous && same == (g.Name == f.Name) {
				t.Fatalf("the %s mutator changed %s: %+v", f.Name, g.Name, k)
			}
		}
		if back, err := specOf(k).runKey(); err != nil || back != k {
			t.Errorf("%s: spec round trip gave %+v, %v; want %+v", f.Name, back, err, k)
		}
		if k.fileKey() == base.fileKey() {
			t.Errorf("%s: fileKey ignores the field: %s", f.Name, k.fileKey())
		}
		a, b := rawOf(base, res), rawOf(k, res)
		if a == b {
			t.Errorf("%s: rawOf's key columns ignore the field", f.Name)
		}
		if !lessRaw(a, b) && !lessRaw(b, a) {
			t.Errorf("%s: lessRaw does not order the two cells", f.Name)
		}
	}
	if fields != len(mutators) {
		t.Errorf("%d mutators for %d runKey fields: delete the stale ones", len(mutators), fields)
	}
}

// FuzzCellSpec drives a worker's decode chain, CellSpec JSON to runKey to
// normalize, with arbitrary bytes. No input may panic, and every accepted
// spec's canonical form (specOf of the normalized key) is a fixed point: it
// survives JSON, parses back to the same key, and normalizes to itself.
func FuzzCellSpec(f *testing.F) {
	r := NewRunner(microConfig())
	for _, k := range planCells(microConfig(), []Experiment{mustExperiment(f, "fig3"), mustExperiment(f, "abl-sampling")}) {
		data, err := json.Marshal(specOf(k))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"workload":"omnetpp","design":"tmcc","setting":"high"}`))
	f.Add([]byte(`{"workload":"a/b","design":"nocomp","setting":"none","ranks":-1,"granularity":3}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec CellSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		k, err := spec.runKey()
		if err != nil {
			return
		}
		k.variant = r.normalize(k.variant)
		canon := specOf(k)
		wire, err := json.Marshal(canon)
		if err != nil {
			t.Fatalf("canonical spec %+v does not encode: %v", canon, err)
		}
		var back CellSpec
		if err := json.Unmarshal(wire, &back); err != nil || back != canon {
			t.Fatalf("canonical spec changed over JSON: %+v -> %+v (%v)", canon, back, err)
		}
		k2, err := back.runKey()
		if err != nil || k2 != k {
			t.Fatalf("canonical spec %+v parses to %+v, %v; want %+v", back, k2, err, k)
		}
		if r.normalize(k2.variant) != k2.variant {
			t.Fatalf("normalizing the canonical key changed it: %+v", k2)
		}
		if back.CellKey() != k.String() {
			t.Fatalf("CellKey %q, want %q", back.CellKey(), k.String())
		}
	})
}

func mustExperiment(tb testing.TB, name string) Experiment {
	tb.Helper()
	e, ok := ByName(name)
	if !ok {
		tb.Fatalf("no experiment %q", name)
	}
	return e
}

// TestOutOfRangeSpecsFailCleanly sends option values that used to panic a
// worker, or exhaust its memory, through system.Build and through
// Runner.ExecuteCell. Each must come back as an error that carries no cell
// failure code, so no breaker counts it as a panic.
func TestOutOfRangeSpecsFailCleanly(t *testing.T) {
	valid := CellSpec{Workload: "omnetpp", Design: "dylect", Setting: "high"}
	specs := []struct {
		name string
		edit func(*CellSpec)
	}{
		{"granularity-3", func(s *CellSpec) { s.Granularity = 3 }},
		{"granularity-2^40", func(s *CellSpec) { s.Granularity = 1 << 40 }},
		{"ranks--1", func(s *CellSpec) { s.Ranks = -1 }},
		{"ranks-2^30", func(s *CellSpec) { s.Ranks = 1 << 30 }},
		{"cte-cache--64", func(s *CellSpec) { s.CTECacheBytes = -64 }},
		{"cte-cache-100", func(s *CellSpec) { s.CTECacheBytes = 100 }},
		{"cte-cache-2^40", func(s *CellSpec) { s.CTECacheBytes = 1 << 40 }},
		{"group-size-2^40", func(s *CellSpec) { s.GroupSize = 1 << 40 }},
	}
	r := NewRunner(microConfig())
	build := func(spec CellSpec) error {
		key, err := spec.runKey()
		if err != nil {
			t.Fatal(err)
		}
		key.variant = r.normalize(key.variant)
		opts, err := r.options(key)
		if err != nil {
			t.Fatal(err)
		}
		_, err = system.Build(opts)
		return err
	}
	if err := build(valid); err != nil {
		t.Fatalf("the unedited spec does not build: %v", err)
	}
	for _, tc := range specs {
		spec := valid
		tc.edit(&spec)
		if err := build(spec); err == nil {
			t.Errorf("%s: system.Build accepted %+v", tc.name, spec)
		}
		_, err := r.ExecuteCell(context.Background(), spec)
		if err == nil {
			t.Errorf("%s: ExecuteCell accepted %+v", tc.name, spec)
		} else if code := CellErrorCodeName(err); code != "" {
			t.Errorf("%s: ExecuteCell failed with code %q, want none: %v", tc.name, code, err)
		}
	}
}

// TestExecuteCellPayloadIsCanonical is the byte-identity oracle at the
// payload level: a storeless worker's ExecuteCell bytes equal the payload a
// checkpointing local run persists for the same cell, and adopting those
// bytes into a fresh store writes a record file byte-identical to the
// locally-persisted one.
func TestExecuteCellPayloadIsCanonical(t *testing.T) {
	cfg := microConfig()
	key := planCells(cfg, []Experiment{mustByName(t, "fig17")})[0]
	spec := specOf(key)
	ctx := context.Background()

	// Local execution with a durable store: Checkpoint.Store persists it.
	localDir := t.TempDir()
	local := NewRunner(cfg)
	cpL, err := OpenCheckpointStore(localDir, cfg, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	local.AttachCheckpoint(cpL)
	payloadLocal, err := local.ExecuteCell(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Worker-side execution, no store, different process in spirit.
	worker := NewRunner(cfg)
	payload, err := worker.ExecuteCell(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, payloadLocal) {
		t.Fatal("worker payload differs from locally-persisted payload")
	}

	// Adopting the worker's bytes must reproduce the local record file
	// exactly (same envelope, same checksum, same content address).
	adoptDir := t.TempDir()
	cpA, err := OpenCheckpointStore(adoptDir, cfg, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cpA.AdoptPayload(key, payload); err != nil {
		t.Fatal(err)
	}
	cpA.Close()
	cpL.Close()
	rec1 := readOnlyStoreRecord(t, localDir)
	rec2 := readOnlyStoreRecord(t, adoptDir)
	if !bytes.Equal(rec1, rec2) {
		t.Error("adopted store record differs from locally-persisted record")
	}
}

// TestPeakRSSSeesTouchedMemory: after the process touches every page of a
// 64 MiB buffer, the next settled cell's profile reports a peak of at least
// 64 MiB on Linux, and 0 elsewhere.
func TestPeakRSSSeesTouchedMemory(t *testing.T) {
	buf := make([]byte, 64<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	r := NewRunner(microConfig())
	// The hook fails the cell before it simulates; it still settles.
	r.SetCellHook(func(string) error { return fmt.Errorf("no simulation here") })
	key := planCells(microConfig(), []Experiment{mustByName(t, "fig17")})[0]
	if _, err := r.result(key); err == nil {
		t.Fatal("hooked cell did not fail")
	}
	got := r.cache[key].report.PeakRSSKB
	runtime.KeepAlive(buf)
	if runtime.GOOS != "linux" {
		if got != 0 {
			t.Fatalf("PeakRSSKB = %d on %s, want 0", got, runtime.GOOS)
		}
		return
	}
	if got < 64<<10 {
		t.Fatalf("PeakRSSKB = %d KB after touching 64 MiB, want >= %d", got, 64<<10)
	}
}

// readOnlyStoreRecord reads the single record file a one-cell store holds.
func readOnlyStoreRecord(t *testing.T, dir string) []byte {
	t.Helper()
	files := storeRecords(t, dir)
	if len(files) != 1 {
		t.Fatalf("store %s holds %d records, want 1", dir, len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRemoteExecutorSettlesCells installs an in-process RemoteExecutor
// backed by a second runner: the coordinator-side runner must simulate
// nothing itself, settle every cell remotely (flagged in telemetry), and
// export byte-identically to a local run.
func TestRemoteExecutorSettlesCells(t *testing.T) {
	cfg := microConfig()
	exp := mustByName(t, "fig17")

	ref := NewRunner(cfg)
	if _, err := RunExperiments(ref, []Experiment{exp}, ExecOptions{Jobs: 4}); err != nil {
		t.Fatal(err)
	}
	want, err := ref.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}

	workerR := NewRunner(cfg)
	var dispatched, remoteSettled atomic.Int32
	coordR := NewRunner(cfg)
	coordR.SetRemoteExecutor(func(ctx context.Context, spec CellSpec) ([]byte, error) {
		dispatched.Add(1)
		return workerR.ExecuteCell(ctx, spec)
	})
	coordR.SetCellTelemetry(func(s CellSettlement) {
		if s.Source == SourceRemote && s.Err == nil {
			remoteSettled.Add(1)
		}
	})
	if _, err := RunExperiments(coordR, []Experiment{exp}, ExecOptions{Jobs: 4}); err != nil {
		t.Fatal(err)
	}
	got, err := coordR.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("remote-executed export differs from local run")
	}
	if dispatched.Load() == 0 {
		t.Fatal("no cells dispatched")
	}
	if remoteSettled.Load() != dispatched.Load() {
		t.Errorf("remote settlements %d != dispatches %d", remoteSettled.Load(), dispatched.Load())
	}
	if got := coordR.Runs(); got != 0 {
		t.Errorf("coordinator ran %d local simulations, want 0", got)
	}
}

// TestRemoteExecutorErrorSurfaces proves an executor failure fails the cell
// (no silent local fallback, which would hide a broken cluster).
func TestRemoteExecutorErrorSurfaces(t *testing.T) {
	cfg := microConfig()
	r := NewRunner(cfg)
	r.SetRemoteExecutor(func(ctx context.Context, spec CellSpec) ([]byte, error) {
		return nil, fmt.Errorf("fabric: every worker is gone")
	})
	outs, err := RunExperiments(r, []Experiment{mustByName(t, "fig17")}, ExecOptions{Jobs: 2})
	if err == nil && len(outs) > 0 && outs[0].Err == nil {
		t.Fatal("remote failure did not surface")
	}
	if got := r.Runs(); got != 0 {
		t.Errorf("runner fell back to %d local simulations", got)
	}
}

// TestRemoteCellRejectsBadPayload proves garbage from the transport cannot
// settle a cell.
func TestRemoteCellRejectsBadPayload(t *testing.T) {
	cfg := microConfig()
	for _, payload := range [][]byte{
		[]byte("not json"),
		[]byte("{}"),
		[]byte(`{"metrics":{}}`),
	} {
		r := NewRunner(cfg)
		r.SetRemoteExecutor(func(ctx context.Context, spec CellSpec) ([]byte, error) {
			return payload, nil
		})
		outs, err := RunExperiments(r, []Experiment{mustByName(t, "fig17")}, ExecOptions{Jobs: 1})
		if err == nil && len(outs) > 0 && outs[0].Err == nil {
			t.Errorf("payload %q settled a cell", payload)
		}
	}
}

func mustByName(t *testing.T, name string) Experiment {
	t.Helper()
	e, ok := ByName(name)
	if !ok {
		t.Fatalf("experiment %s missing", name)
	}
	return e
}
