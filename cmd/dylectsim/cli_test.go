package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCLIList(t *testing.T) {
	var sb strings.Builder
	if code := cli(context.Background(), []string{"-list"}, &sb, io.Discard); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	out := sb.String()
	for _, want := range []string{"table1", "fig18", "fig25", "abl-gradual"} {
		if !strings.Contains(out, want) {
			t.Fatalf("list output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if code := cli(context.Background(), []string{"-exp", "fig99"}, &sb, io.Discard); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(sb.String(), "unknown experiment") {
		t.Fatal("missing error message")
	}
}

func TestCLIBadFlag(t *testing.T) {
	var sb strings.Builder
	if code := cli(context.Background(), []string{"-definitely-not-a-flag"}, &sb, io.Discard); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestCLIStaticExperiment(t *testing.T) {
	// table3 needs no simulation: exercises the full path cheaply.
	var sb strings.Builder
	code := cli(context.Background(), []string{"-exp", "table3", "-quick"}, &sb, io.Discard)
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, sb.String())
	}
	if !strings.Contains(sb.String(), "DDR4-3200") {
		t.Fatalf("table3 output missing:\n%s", sb.String())
	}
}

func TestCLIUnknownWorkloadFailsCleanly(t *testing.T) {
	// A bad -workloads value must fail the run with the offending cell's
	// workload in the message, not panic (the pool's error path).
	var sb strings.Builder
	code := cli(context.Background(), []string{"-exp", "fig17", "-workloads", "nope", "-scale", "32",
		"-warmup", "1000", "-window", "5"}, &sb, io.Discard)
	if code != 1 {
		t.Fatalf("exit code %d, want 1:\n%s", code, sb.String())
	}
	if !strings.Contains(sb.String(), `unknown workload "nope"`) {
		t.Fatalf("missing cell error:\n%s", sb.String())
	}
}

func TestCLISimulatedExperimentWithJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "out.json")
	var sb strings.Builder
	code := cli(context.Background(), []string{
		"-exp", "fig17", "-workloads", "omnetpp",
		"-scale", "16", "-warmup", "20000", "-window", "10",
		"-json", jsonPath,
	}, &sb, io.Discard)
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, sb.String())
	}
	if !strings.Contains(sb.String(), "omnetpp") {
		t.Fatal("figure output missing workload row")
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("json not written: %v", err)
	}
	if !strings.Contains(string(data), "\"workload\": \"omnetpp\"") {
		t.Fatal("json missing run record")
	}
}

// TestCLIInterruptPartialExport models SIGINT delivery: with the signal
// context already canceled, the run drains (no cell starts), the -json
// export is still written atomically (here: an empty result set), and the
// exit code is the conventional 130. The drain report and the export are
// pinned to exact bytes, so every run of a repeated -count checks that both
// are byte-stable.
func TestCLIInterruptPartialExport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "partial.json")
	var sb strings.Builder
	code := cli(ctx, []string{
		"-exp", "fig17", "-workloads", "omnetpp",
		"-scale", "32", "-warmup", "1000", "-window", "5",
		"-json", jsonPath,
	}, &sb, io.Discard)
	if code != 130 {
		t.Fatalf("exit code %d, want 130:\n%s", code, sb.String())
	}
	const wantReport = "== Figure 17: baseline bandwidth utilization (fig17)\n\n" +
		"!! failed: experiment fig17: harness: cell omnetpp/nocomp/none: not started: context canceled\n\n"
	if got := sb.String(); got != wantReport {
		t.Fatalf("drain report is\n%q\nwant\n%q", got, wantReport)
	}
	export, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("partial export not written: %v", err)
	}
	if string(export) != "[]" {
		t.Fatalf("partial export is %q, want %q", export, "[]")
	}
}

// TestCLICheckpointFlag drives the -checkpoint path end to end: a run
// persists its cells, and a re-run against the same directory resumes
// without re-simulating (reported as 0 simulations).
func TestCLICheckpointFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	args := []string{
		"-exp", "fig17", "-workloads", "omnetpp",
		"-scale", "32", "-warmup", "5000", "-window", "5",
		"-audit", "-checkpoint", ckpt,
	}
	var out1 strings.Builder
	if code := cli(context.Background(), args, &out1, io.Discard); code != 0 {
		t.Fatalf("first run exit %d:\n%s", code, out1.String())
	}
	ents, err := os.ReadDir(ckpt)
	if err != nil || len(ents) < 2 { // manifest + at least one cell
		t.Fatalf("checkpoint dir not populated: %v (%d entries)", err, len(ents))
	}
	var errOut2 strings.Builder
	var out2 strings.Builder
	if code := cli(context.Background(), args, &out2, &errOut2); code != 0 {
		t.Fatalf("resume exit %d:\n%s", code, out2.String())
	}
	if out1.String() != out2.String() {
		t.Fatal("resumed stdout differs from original run")
	}
	if !strings.Contains(errOut2.String(), "0 simulations") {
		t.Fatalf("resume re-simulated cells:\n%s", errOut2.String())
	}
}

// TestCLIJobsEquivalence pins the tentpole invariant at the CLI level:
// stdout and the -json export are byte-identical between -jobs 1 and
// -jobs 8. (The full -exp all -quick variant of this check lives in
// internal/harness's TestJobsEquivalenceAllExperiments, where the runner
// can use a smaller simulation window.)
func TestCLIJobsEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	run := func(jobs string) (string, []byte) {
		t.Helper()
		dir := t.TempDir()
		jsonPath := filepath.Join(dir, "out.json")
		var sb strings.Builder
		code := cli(context.Background(), []string{
			"-exp", "fig17,fig19,fig22", "-workloads", "omnetpp,bfs",
			"-scale", "32", "-warmup", "10000", "-window", "8",
			"-jobs", jobs, "-json", jsonPath,
		}, &sb, io.Discard)
		if code != 0 {
			t.Fatalf("jobs=%s exit code %d:\n%s", jobs, code, sb.String())
		}
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatalf("jobs=%s json not written: %v", jobs, err)
		}
		return sb.String(), data
	}
	out1, json1 := run("1")
	out8, json8 := run("8")
	if out1 != out8 {
		t.Errorf("stdout differs between -jobs 1 and -jobs 8\n-- jobs 1:\n%s\n-- jobs 8:\n%s", out1, out8)
	}
	if string(json1) != string(json8) {
		t.Errorf("-json export differs between -jobs 1 and -jobs 8")
	}
}

// TestCLIObservabilityFlags drives the -metrics-out/-trace-out/-profile-out
// and pprof flags end to end, and pins that enabling them leaves the
// deterministic exports (stdout, -json) byte-identical.
func TestCLIObservabilityFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	base := []string{
		"-exp", "fig17", "-workloads", "omnetpp",
		"-scale", "32", "-warmup", "5000", "-window", "5",
	}
	plainDir := t.TempDir()
	plainJSON := filepath.Join(plainDir, "out.json")
	var plainOut strings.Builder
	if code := cli(context.Background(), append(append([]string{}, base...), "-json", plainJSON),
		&plainOut, io.Discard); code != 0 {
		t.Fatalf("plain run exit %d:\n%s", code, plainOut.String())
	}

	dir := t.TempDir()
	paths := map[string]string{
		"json":    filepath.Join(dir, "out.json"),
		"metrics": filepath.Join(dir, "metrics.ndjson"),
		"trace":   filepath.Join(dir, "trace.json"),
		"profile": filepath.Join(dir, "profile.json"),
		"cpu":     filepath.Join(dir, "cpu.pprof"),
		"mem":     filepath.Join(dir, "mem.pprof"),
	}
	args := append(append([]string{}, base...),
		"-json", paths["json"],
		"-metrics-out", paths["metrics"], "-metrics-samples", "6",
		"-trace-out", paths["trace"],
		"-profile-out", paths["profile"],
		"-pprof-cpu", paths["cpu"], "-pprof-mem", paths["mem"],
	)
	var obsOut strings.Builder
	if code := cli(context.Background(), args, &obsOut, io.Discard); code != 0 {
		t.Fatalf("observed run exit %d:\n%s", code, obsOut.String())
	}

	if plainOut.String() != obsOut.String() {
		t.Error("enabling observability changed stdout")
	}
	plain, err := os.ReadFile(plainJSON)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := os.ReadFile(paths["json"])
	if err != nil {
		t.Fatal(err)
	}
	if string(plain) != string(observed) {
		t.Error("enabling observability changed the -json export")
	}

	metrics, err := os.ReadFile(paths["metrics"])
	if err != nil {
		t.Fatalf("metrics NDJSON not written: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(metrics)), "\n")
	if len(lines) != 6 { // one cell, six samples
		t.Errorf("metrics lines = %d, want 6", len(lines))
	}
	for _, line := range lines {
		if !strings.Contains(line, `"cell":"omnetpp/nocomp/none"`) {
			t.Errorf("metrics line missing cell tag: %s", line)
		}
	}
	trace, err := os.ReadFile(paths["trace"])
	if err != nil {
		t.Fatalf("trace JSON not written: %v", err)
	}
	if !strings.Contains(string(trace), `"traceEvents"`) {
		t.Error("trace output is not Chrome trace-event JSON")
	}
	profile, err := os.ReadFile(paths["profile"])
	if err != nil {
		t.Fatalf("profile JSON not written: %v", err)
	}
	if !strings.Contains(string(profile), `"wallMS"`) {
		t.Error("profile output missing wall time")
	}
	for _, p := range []string{paths["cpu"], paths["mem"]} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("pprof profile %s missing or empty (err=%v)", p, err)
		}
	}
}
