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

// TestCellSpecRoundTrip proves CellSpec is a lossless wire form of the cell
// key: every planned cell of every experiment survives spec -> JSON -> spec
// unchanged, passes the check a worker makes, and is normalized.
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
	r := NewRunner(cfg)
	for _, k := range keys {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back CellSpec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if err := back.check(); err != nil {
			t.Fatalf("spec of %s fails its check: %v", k.CellKey(), err)
		}
		if back != k || r.normalize(back) != back {
			t.Fatalf("round trip changed the key: %+v -> %+v", k, back)
		}
	}
	// Bad specs are rejected, not mapped onto some default cell.
	for _, bad := range []CellSpec{
		{Workload: "omnetpp", Design: "warp-drive", Setting: "high"},
		{Workload: "omnetpp", Design: "tmcc", Setting: "sideways"},
		{Design: "tmcc", Setting: "high"},
	} {
		if err := bad.check(); err == nil {
			t.Errorf("spec %+v passed its check; want rejection", bad)
		}
	}
}

// TestCellKeyFieldCoverage holds CellSpec's promise that every field
// participates. Each field has one mutator that changes only that field,
// and the mutated key must change the store file name, the export's key
// columns and its sort position. A field without a mutator fails the test,
// so a new knob cannot join the key without a store identity and an export
// order: otherwise two cells would share one store address, and a cluster
// merge would be silently wrong.
func TestCellKeyFieldCoverage(t *testing.T) {
	mutators := map[string]func(*CellSpec){
		"Workload":      func(k *CellSpec) { k.Workload = "mcf" },
		"Design":        func(k *CellSpec) { k.Design = system.DesignTMCC.String() },
		"Setting":       func(k *CellSpec) { k.Setting = system.SettingLow.String() },
		"HugePages":     func(k *CellSpec) { k.HugePages = !k.HugePages },
		"CTECacheBytes": func(k *CellSpec) { k.CTECacheBytes *= 2 },
		"Granularity":   func(k *CellSpec) { k.Granularity *= 2 },
		"GroupSize":     func(k *CellSpec) { k.GroupSize++ },
		"PerfectCTE":    func(k *CellSpec) { k.PerfectCTE = !k.PerfectCTE },
		"EmbedPTB":      func(k *CellSpec) { k.EmbedPTB = !k.EmbedPTB },
		"DirectToML0":   func(k *CellSpec) { k.DirectToML0 = !k.DirectToML0 },
		"SamplePeriod":  func(k *CellSpec) { k.SamplePeriod++ },
	}
	base := NewRunner(microConfig()).normalize(cell("omnetpp", system.DesignDyLeCT, system.SettingHigh))
	res := &system.Result{}
	exported := func(k CellSpec) []byte {
		data, err := json.Marshal(rawOf(k, res))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	fields := reflect.VisibleFields(reflect.TypeOf(base))
	for _, f := range fields {
		mutate, ok := mutators[f.Name]
		if !ok {
			t.Errorf("CellSpec field %s has no mutator: add one, and carry the field in fileKey and lessSpec", f.Name)
			continue
		}
		k := base
		mutate(&k)
		for _, g := range fields {
			same := reflect.ValueOf(k).FieldByIndex(g.Index).Equal(reflect.ValueOf(base).FieldByIndex(g.Index))
			if same == (g.Name == f.Name) {
				t.Fatalf("the %s mutator changed %s: %+v", f.Name, g.Name, k)
			}
		}
		if k.fileKey() == base.fileKey() {
			t.Errorf("%s: fileKey ignores the field: %s", f.Name, k.fileKey())
		}
		if bytes.Equal(exported(base), exported(k)) {
			t.Errorf("%s: the export's key columns ignore the field", f.Name)
		}
		if !lessSpec(base, k) && !lessSpec(k, base) {
			t.Errorf("%s: lessSpec does not order the two cells", f.Name)
		}
	}
	if len(fields) != len(mutators) {
		t.Errorf("%d mutators for %d CellSpec fields: delete the stale ones", len(mutators), len(fields))
	}
}

// TestCellKeyStringsArePinned pins the strings that outlive a build. A store
// written by one build must still hit under the next, so fileKey, the
// store address, must not move; breaker classes, -chaos matches and
// dybench's cell timer key on CellKey, which names the four variants that
// change the translation path and no other knob.
func TestCellKeyStringsArePinned(t *testing.T) {
	base := NewRunner(Quick()).normalize(cell("omnetpp", system.DesignDyLeCT, system.SettingHigh))
	if got, want := base.fileKey(), "omnetpp_dylect_high_hptrue_cte16384_gran4096_grp3_pctefalse_ptbfalse_dml0false_sp20_r0.json"; got != want {
		t.Errorf("fileKey = %q, want %q", got, want)
	}
	for _, tc := range []struct {
		edit func(*CellSpec)
		want string
	}{
		{func(*CellSpec) {}, "omnetpp/dylect/high"},
		{func(c *CellSpec) { c.HugePages = false }, "omnetpp/dylect/high/4K"},
		{func(c *CellSpec) { c.PerfectCTE = true }, "omnetpp/dylect/high/perfectCTE"},
		{func(c *CellSpec) { c.EmbedPTB = true }, "omnetpp/dylect/high/embedPTB"},
		{func(c *CellSpec) { c.DirectToML0 = true }, "omnetpp/dylect/high/directToML0"},
		{func(c *CellSpec) {
			c.HugePages, c.PerfectCTE, c.EmbedPTB, c.DirectToML0 = false, true, true, true
		}, "omnetpp/dylect/high/4K/perfectCTE/embedPTB/directToML0"},
		{func(c *CellSpec) {
			c.CTECacheBytes, c.Granularity, c.GroupSize, c.SamplePeriod = 8<<10, 16<<10, 7, 80
		}, "omnetpp/dylect/high"},
	} {
		k := base
		tc.edit(&k)
		if got := k.CellKey(); got != tc.want {
			t.Errorf("CellKey of %+v = %q, want %q", k, got, tc.want)
		}
	}
}

// FuzzCellSpec drives a worker's decode chain, CellSpec JSON to check to
// normalize, with arbitrary bytes. No input may panic, and every accepted
// spec's canonical form (the normalized spec) is a fixed point: it survives
// JSON, passes the check, normalizes to itself, and keeps the accepted
// spec's cell key.
func FuzzCellSpec(f *testing.F) {
	r := NewRunner(microConfig())
	for _, k := range planCells(microConfig(), []Experiment{mustExperiment(f, "fig3"), mustExperiment(f, "abl-sampling")}) {
		data, err := json.Marshal(k)
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
		if json.Unmarshal(data, &spec) != nil || spec.check() != nil {
			return
		}
		canon := r.normalize(spec)
		wire, err := json.Marshal(canon)
		if err != nil {
			t.Fatalf("canonical spec %+v does not encode: %v", canon, err)
		}
		var back CellSpec
		if err := json.Unmarshal(wire, &back); err != nil || back != canon {
			t.Fatalf("canonical spec changed over JSON: %+v -> %+v (%v)", canon, back, err)
		}
		if err := back.check(); err != nil {
			t.Fatalf("canonical spec %+v fails its check: %v", back, err)
		}
		if r.normalize(back) != back {
			t.Fatalf("normalizing the canonical spec changed it: %+v", back)
		}
		if back.CellKey() != spec.CellKey() {
			t.Fatalf("CellKey %q, want %q", back.CellKey(), spec.CellKey())
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
		{"cte-cache--64", func(s *CellSpec) { s.CTECacheBytes = -64 }},
		{"cte-cache-100", func(s *CellSpec) { s.CTECacheBytes = 100 }},
		{"cte-cache-2^40", func(s *CellSpec) { s.CTECacheBytes = 1 << 40 }},
		{"group-size-2^40", func(s *CellSpec) { s.GroupSize = 1 << 40 }},
	}
	r := NewRunner(microConfig())
	build := func(spec CellSpec) error {
		if err := spec.check(); err != nil {
			t.Fatal(err)
		}
		opts, err := r.options(r.normalize(spec))
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
	spec := key
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
