package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dylect/internal/system"
)

// rewriteManifest re-encodes the manifest with different formatting/field
// order but identical meaning, optionally mutating it first.
func rewriteManifest(t *testing.T, dir string, mutate func(m map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(m)
	}
	// Compact re-encode through a map: field order and indentation both
	// change versus the pretty-printed original.
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out, data) {
		t.Fatal("manifest rewrite produced identical bytes; test is vacuous")
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointManifestFormattingRobust: re-encoding the manifest (field
// order, indentation) must not reject a valid resume — identity is the
// canonical hash, not the bytes.
func TestCheckpointManifestFormattingRobust(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenCheckpoint(dir, microConfig()); err != nil {
		t.Fatal(err)
	}
	rewriteManifest(t, dir, nil)
	if _, err := OpenCheckpoint(dir, microConfig()); err != nil {
		t.Fatalf("reformatted manifest rejected a valid resume: %v", err)
	}
}

// TestCheckpointRefusesStaleSchema: a manifest pinned to another simulator
// generation must refuse to resume, naming both versions.
func TestCheckpointRefusesStaleSchema(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenCheckpoint(dir, microConfig()); err != nil {
		t.Fatal(err)
	}
	rewriteManifest(t, dir, func(m map[string]any) {
		m["schemaVersion"] = "dylect-sim/0-ancient"
	})
	_, err := OpenCheckpoint(dir, microConfig())
	if err == nil {
		t.Fatal("stale schema accepted")
	}
	if !strings.Contains(err.Error(), "dylect-sim/0-ancient") ||
		!strings.Contains(err.Error(), system.SchemaVersion) {
		t.Fatalf("error does not name both schema versions: %v", err)
	}
}

// TestCheckpointRefusesLegacyManifest: a PR-4-era manifest (the raw pretty
// Config JSON, no schema pin) is refused with a clear message, not parsed
// as an empty config.
func TestCheckpointRefusesLegacyManifest(t *testing.T) {
	dir := t.TempDir()
	legacy, err := json.MarshalIndent(microConfig(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenCheckpoint(dir, microConfig())
	if err == nil {
		t.Fatal("legacy manifest accepted")
	}
	if !strings.Contains(err.Error(), "legacy") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestCheckpointAllowsWorkloadSubsetResume: the workload list selects which
// cells run, not what any cell contains, so resuming the same store with a
// different -workloads subset is sound and must be accepted.
func TestCheckpointAllowsWorkloadSubsetResume(t *testing.T) {
	dir := t.TempDir()
	cfg := microConfig()
	if _, err := OpenCheckpoint(dir, cfg); err != nil {
		t.Fatal(err)
	}
	sub := cfg
	sub.Workloads = []string{"omnetpp", "bfs"}
	if _, err := OpenCheckpoint(dir, sub); err != nil {
		t.Fatalf("workload-subset resume rejected: %v", err)
	}
}

// TestConfigHashCoversEveryConfigField forces ConfigHash maintenance: a new
// Config field must be added to canonicalConfig (or to the justified
// exemption list here) before the build goes green.
func TestConfigHashCoversEveryConfigField(t *testing.T) {
	exempt := map[string]string{
		"Workloads": "cell identity carries its workload in the CellSpec; the list only selects cells",
	}
	hashed := map[string]bool{}
	ct := reflect.TypeOf(canonicalConfig{})
	for i := 0; i < ct.NumField(); i++ {
		hashed[ct.Field(i).Name] = true
	}
	cfgT := reflect.TypeOf(Config{})
	for i := 0; i < cfgT.NumField(); i++ {
		name := cfgT.Field(i).Name
		if _, ok := exempt[name]; ok {
			continue
		}
		if !hashed[name] {
			t.Errorf("Config.%s is neither hashed by canonicalConfig nor exempted: add it to ConfigHash (it can alter cell payloads) or justify its exemption", name)
		}
	}
}

// TestConfigHashDistinguishesPayloads: differing result-relevant fields
// hash apart; differing workload lists hash together.
func TestConfigHashDistinguishesPayloads(t *testing.T) {
	base := microConfig()
	if ConfigHash(base) != ConfigHash(base) {
		t.Fatal("ConfigHash is not deterministic")
	}
	seeded := base
	seeded.Seed = 42
	if ConfigHash(base) == ConfigHash(seeded) {
		t.Fatal("seed change not reflected in hash")
	}
	subset := base
	subset.Workloads = []string{"bfs"}
	if ConfigHash(base) != ConfigHash(subset) {
		t.Fatal("workload list leaked into the hash")
	}
}

// corruptOneRecord flips a payload byte in the checkpoint's single stored
// record and returns its path.
func corruptOneRecord(t *testing.T, dir string) string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(filepath.Join(dir, "records"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".cell") {
			files = append(files, path)
		}
		return err
	})
	if err != nil || len(files) == 0 {
		t.Fatalf("no records to corrupt (err=%v)", err)
	}
	path := files[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`"payload":`))
	if i < 0 {
		t.Fatalf("record has no payload: %s", data)
	}
	j := bytes.IndexAny(data[i:], "0123456789")
	data[i+j] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCorruptCellIsResimulatedNotFatal is the load-hardening satellite: a
// checkpointed cell whose record fails its checksum is quarantined with a
// warning and transparently re-simulated — the sweep never aborts and the
// result is identical to the original.
func TestCorruptCellIsResimulatedNotFatal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := t.TempDir()
	cfg := microConfig()
	var warn bytes.Buffer
	cp, err := OpenCheckpointStore(dir, cfg, StoreOptions{Log: &warn})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(cfg)
	r.AttachCheckpoint(cp)
	want, err := r.Result("omnetpp", system.DesignTMCC, system.SettingHigh)
	if err != nil {
		t.Fatal(err)
	}
	if puts := cp.StoreStats().Puts; puts != 1 {
		t.Fatalf("stored %d cells, want 1", puts)
	}
	corruptOneRecord(t, dir)

	var warn2 bytes.Buffer
	cp2, err := OpenCheckpointStore(dir, cfg, StoreOptions{Log: &warn2})
	if err != nil {
		t.Fatal(err)
	}
	st := cp2.StoreStats()
	if st.OpenQuarantined != 1 || st.Reasons["checksum-mismatch"] != 1 {
		t.Fatalf("open scan = %+v", st)
	}
	if !strings.Contains(warn2.String(), "quarantined") {
		t.Fatalf("no quarantine warning logged:\n%s", warn2.String())
	}
	r2 := NewRunner(cfg)
	r2.AttachCheckpoint(cp2)
	got, err := r2.Result("omnetpp", system.DesignTMCC, system.SettingHigh)
	if err != nil {
		t.Fatalf("corrupt record aborted the sweep: %v", err)
	}
	if r2.Runs() != 1 {
		t.Fatalf("corrupt cell was not re-simulated (runs=%d)", r2.Runs())
	}
	if got.IPC != want.IPC || got.Insts != want.Insts {
		t.Fatalf("re-simulated result differs: ipc %v vs %v", got.IPC, want.IPC)
	}
}

// TestFreshCostCountsStoreResidentCellsFree: warm store records price as
// cached, so a warm-restarted service admits repeat traffic at zero cost.
func TestFreshCostCountsStoreResidentCellsFree(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := t.TempDir()
	cfg := microConfig()
	e, ok := ByName("fig19")
	if !ok {
		t.Fatal("fig19 missing")
	}
	cp, err := OpenCheckpointStore(dir, cfg, StoreOptions{Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(cfg)
	r.AttachCheckpoint(cp)
	cold := r.FreshCost([]Experiment{e})
	if cold == 0 {
		t.Fatal("cold plan priced free")
	}
	if _, err := RunExperiments(r, []Experiment{e}, ExecOptions{Jobs: 4}); err != nil {
		t.Fatal(err)
	}

	// Fresh process: empty in-memory cache, warm store.
	cp2, err := OpenCheckpointStore(dir, cfg, StoreOptions{Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(cfg)
	r2.AttachCheckpoint(cp2)
	if warm := r2.FreshCost([]Experiment{e}); warm != 0 {
		t.Fatalf("warm-store plan priced %d fresh cells, want 0", warm)
	}
}
