package harness

import (
	"bytes"
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// storeRecords lists the store's record files, sorted.
func storeRecords(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(filepath.Join(dir, "records"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".cell") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestStoreChaosRecoveryByteIdentical is the chaos acceptance test for the
// durable store: across three interrupted restart cycles, with records
// truncated and bit-flipped (and a torn atomic-write temp planted — the
// exact residue of a SIGKILL mid-write) between every cycle, the store must
// quarantine every damaged record with a logged reason, never serve one,
// and the final export must be byte-identical to an uninterrupted -jobs 8
// run. scripts/store_crash.sh repeats the same matrix out of process with
// real SIGKILLs.
func TestStoreChaosRecoveryByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	e, ok := ByName("fig19")
	if !ok {
		t.Fatal("fig19 missing")
	}
	cfg := microConfig()
	planned := len(planCells(cfg, []Experiment{e}))
	if planned < 2 {
		t.Fatalf("test needs >=2 cells, planned %d", planned)
	}

	// Reference: uninterrupted, storeless, 8 jobs.
	ref := NewRunner(cfg)
	if _, err := RunExperiments(ref, []Experiment{e}, ExecOptions{Jobs: 8}); err != nil {
		t.Fatal(err)
	}
	want, err := ref.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var log bytes.Buffer
	totalCorrupted := 0

	// corrupt damages up to two store records (payload bit-flip + truncate)
	// and plants a torn atomic-write temp file.
	corrupt := func(cycle int) {
		files := storeRecords(t, dir)
		for i, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			switch i {
			case 0: // bit-flip inside the payload
				p := bytes.Index(data, []byte(`"payload":`))
				q := bytes.IndexAny(data[p:], "0123456789")
				data[p+q] ^= 0x01
			case 1: // torn write: keep a prefix
				data = data[:len(data)/3]
			default:
				continue
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			totalCorrupted++
		}
		tmp := filepath.Join(filepath.Dir(files[0]), ".garbage.cell.tmp-1")
		if err := os.WriteFile(tmp, []byte(`{"format":1,"sch`), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Three interrupted cycles: run a little, "crash" (cancel), damage the
	// store, restart into a fresh runner over the same directory.
	for cycle := 0; cycle < 3; cycle++ {
		cp, err := OpenCheckpointStore(dir, cfg, StoreOptions{Log: &log})
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		r := NewRunner(cfg)
		r.AttachCheckpoint(cp)
		r.SetContext(ctx)
		var once sync.Once
		r.SetCellTelemetry(func(CellSettlement) {
			once.Do(cancel) // interrupt after the first cell settles
		})
		_, _ = RunExperiments(r, []Experiment{e}, ExecOptions{Jobs: 1})
		cancel()
		cp.Close()
		if len(storeRecords(t, dir)) == 0 {
			t.Fatalf("cycle %d persisted nothing", cycle)
		}
		corrupt(cycle)
	}

	// Final cycle: full run to completion over the battered store.
	cp, err := OpenCheckpointStore(dir, cfg, StoreOptions{Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	st := cp.StoreStats()
	if st.OpenQuarantined == 0 {
		t.Fatal("open scan quarantined nothing despite injected corruption")
	}
	r := NewRunner(cfg)
	r.AttachCheckpoint(cp)
	if _, err := RunExperiments(r, []Experiment{e}, ExecOptions{Jobs: 8}); err != nil {
		t.Fatal(err)
	}
	got, err := r.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("post-chaos export differs from uninterrupted run\n%s", diffHint(string(want), string(got)))
	}

	// Every damaged record (and every planted temp) is preserved in
	// quarantine with a logged reason; none was deleted or served.
	qfiles, err := filepath.Glob(filepath.Join(dir, "quarantine", "*.cell*"))
	if err != nil {
		t.Fatal(err)
	}
	var qnames []string
	for _, f := range qfiles {
		if !strings.HasSuffix(f, "quarantine.log") {
			qnames = append(qnames, filepath.Base(f))
		}
	}
	if len(qnames) < totalCorrupted {
		t.Errorf("quarantine holds %d specimens, corrupted %d", len(qnames), totalCorrupted)
	}
	qlog, err := os.ReadFile(cp.QuarantineLogPath())
	if err != nil {
		t.Fatalf("no quarantine log: %v", err)
	}
	for _, reason := range []string{"checksum-mismatch", "unparseable", "orphaned-temp"} {
		if !strings.Contains(string(qlog), "reason="+reason) {
			t.Errorf("quarantine log missing reason=%s:\n%s", reason, qlog)
		}
	}

	// A final fresh open over the healed store serves everything warm:
	// zero simulations, byte-identical export.
	cp2, err := OpenCheckpointStore(dir, cfg, StoreOptions{Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if q := cp2.StoreStats().OpenQuarantined; q != 0 {
		t.Fatalf("healed store still quarantined %d records at open", q)
	}
	r2 := NewRunner(cfg)
	r2.AttachCheckpoint(cp2)
	if _, err := RunExperiments(r2, []Experiment{e}, ExecOptions{Jobs: 8}); err != nil {
		t.Fatal(err)
	}
	if r2.Runs() != 0 {
		t.Errorf("warm store re-simulated %d cells, want 0", r2.Runs())
	}
	warm, err := r2.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(warm) != string(want) {
		t.Errorf("warm export differs from uninterrupted run\n%s", diffHint(string(want), string(warm)))
	}
}
