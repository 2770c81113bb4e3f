package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runIn runs the benchmark in a scratch directory and decodes its last line.
func runIn(t *testing.T, args ...string) (result, string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v exited %d:\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res, stderr.String()
}

// checkMetrics requires exactly the declared metrics, with their units.
func checkMetrics(t *testing.T, what string, got metricSet, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: missing %s", what, w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("%s: %s in %s, want %s", what, w.Name, m.Unit, w.Unit)
		}
	}
}

// A short untraced run of every workload passes its output checks and
// reports every end-to-end metric, each non-zero.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	defer func(n int) { setupReps = n }(setupReps)
	setupReps = 1
	spec := loadSpec(t)
	for _, w := range workloads {
		res, log := runIn(t, "--workload", w.name, "--seed", "7", "--seconds", "0.2", "--trace", "0")
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", w.name, res.Correct, res.Attempted, res.Failed, log)
		}
		checkMetrics(t, w.name, res.Metrics, spec.EndToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
			}
		}
	}
}

// A traced run reports every per-layer metric and writes its spans.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced workload")
	}
	spec := loadSpec(t)
	res, log := runIn(t, "--workload", "fabric-dispatch", "--seed", "7", "--seconds", "0.5", "--trace", "1")
	if !res.Correct {
		t.Fatalf("traced run failed its output check\n%s", log)
	}
	checkMetrics(t, "fabric-dispatch traced", res.Metrics, spec.PerLayer)
	if !strings.Contains(log, "spans in .bench_build/dybench-spans/fabric-dispatch-seed7.jsonl") {
		t.Errorf("no span file reported:\n%s", log)
	}
	// The coordinator dispatches every cell; it simulates none itself.
	if got := res.Metrics["harness.simulations_per_pass"].Value; got != 0 {
		t.Errorf("simulations per pass %v, want 0", got)
	}
}

func TestBadArgumentsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sweep-paper", "--seconds", "0"},
		{"--workload", "sweep-paper", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
