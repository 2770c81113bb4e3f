package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
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
		if s.Remote && s.Err == nil {
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
