package harness

import (
	"strings"
	"sync"
	"testing"

	"dylect/internal/engine"
	"dylect/internal/system"
)

// smallConfig is a two-workload configuration small enough to run the full
// experiment list in a few seconds; shared by the equivalence and golden
// tests so their cell sets overlap meaningfully.
func smallConfig() Config {
	return Config{
		Workloads:      []string{"omnetpp", "bfs"},
		ScaleDivisor:   32,
		FootprintFloor: 64 << 20,
		WarmupAccesses: 10_000,
		Window:         8 * engine.Microsecond,
		Seed:           1,
		// Audited by default (read-only): the golden corpus therefore
		// also proves clean runs pass the invariant auditor.
		Audit: true,
	}
}

// TestSingleFlightExactlyOneRunPerKey hammers the memoizer from many
// goroutines (run under -race in CI): every goroutine requests the same
// three cells, and exactly one simulation per unique key may execute.
func TestSingleFlightExactlyOneRunPerKey(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := microConfig()
	cfg.WarmupAccesses = 5_000
	cfg.Window = 5 * engine.Microsecond
	r := NewRunner(cfg)
	r.SetJobs(4)

	designs := []struct {
		d system.Design
		s system.Setting
	}{
		{system.DesignNoComp, system.SettingNone},
		{system.DesignTMCC, system.SettingHigh},
		{system.DesignDyLeCT, system.SettingHigh},
	}
	const hammerers = 32
	results := make([][]*system.Result, hammerers)
	var wg sync.WaitGroup
	for g := 0; g < hammerers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := make([]*system.Result, len(designs))
			for i := range designs {
				// Vary request order across goroutines.
				j := (i + g) % len(designs)
				res, err := r.Result("omnetpp", designs[j].d, designs[j].s)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				got[j] = res
			}
			results[g] = got
		}(g)
	}
	wg.Wait()

	if got := r.Runs(); got != len(designs) {
		t.Fatalf("%d simulations executed for %d unique keys", got, len(designs))
	}
	for g := 1; g < hammerers; g++ {
		for i := range designs {
			if results[g] == nil || results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d observed a different result object for key %d", g, i)
			}
		}
	}
}

// TestJobsEquivalenceAllExperiments is the tentpole invariant: the full
// experiment list produces byte-identical rendered blocks and JSON export
// at jobs=1 and jobs=8.
func TestJobsEquivalenceAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	run := func(jobs int) (string, string, int) {
		t.Helper()
		r := NewRunner(smallConfig())
		outs, err := RunExperiments(r, Experiments(), ExecOptions{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var sb strings.Builder
		for _, eo := range outs {
			sb.WriteString(eo.Experiment.Name)
			sb.WriteString("\n")
			for _, b := range eo.Blocks {
				sb.WriteString(b)
				sb.WriteString("\n")
			}
		}
		data, err := r.ExportJSON()
		if err != nil {
			t.Fatalf("jobs=%d export: %v", jobs, err)
		}
		return sb.String(), string(data), r.Runs()
	}
	blocks1, json1, runs1 := run(1)
	blocks8, json8, runs8 := run(8)
	if blocks1 != blocks8 {
		t.Errorf("rendered blocks differ between jobs=1 and jobs=8")
	}
	if json1 != json8 {
		t.Errorf("JSON export differs between jobs=1 and jobs=8")
	}
	if runs1 != runs8 {
		t.Errorf("simulation counts differ: jobs=1 ran %d, jobs=8 ran %d", runs1, runs8)
	}
	// The dry-run plan must match the cells actually simulated exactly:
	// a shortfall means lost overlap, an excess means wasted simulations.
	if planned := len(planCells(smallConfig(), Experiments())); planned != runs8 {
		t.Errorf("planned %d cells but simulated %d", planned, runs8)
	}
}

// TestRunExperimentsOrderedOutput checks the deterministic merge: outputs
// come back in registration order regardless of completion order.
func TestRunExperimentsOrderedOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(microConfig())
	exps := []Experiment{}
	for _, name := range []string{"fig19", "table3", "fig17", "table2"} {
		e, ok := ByName(name)
		if !ok {
			t.Fatalf("experiment %s missing", name)
		}
		exps = append(exps, e)
	}
	outs, err := RunExperiments(r, exps, ExecOptions{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, eo := range outs {
		if eo.Experiment.Name != exps[i].Name {
			t.Fatalf("output %d is %s, want %s", i, eo.Experiment.Name, exps[i].Name)
		}
		if len(eo.Blocks) == 0 {
			t.Fatalf("output %d (%s) has no blocks", i, eo.Experiment.Name)
		}
	}
}

// TestUnknownWorkloadError covers the pool's error path: an unknown
// workload must come back as an error naming the cell, not a panic.
func TestUnknownWorkloadError(t *testing.T) {
	cfg := microConfig()
	cfg.Workloads = []string{"nope"}
	r := NewRunner(cfg)

	if _, err := r.Result("nope", system.DesignTMCC, system.SettingHigh); err == nil {
		t.Fatal("Result(unknown workload) returned nil error")
	} else if !strings.Contains(err.Error(), `unknown workload "nope"`) {
		t.Fatalf("error does not name the workload: %v", err)
	}
	// The failed cell is cached: a second request returns the same error
	// without attempting another run.
	if _, err := r.Result("nope", system.DesignTMCC, system.SettingHigh); err == nil {
		t.Fatal("cached failure lost")
	}
	if r.Runs() != 0 {
		t.Fatalf("failed cell counted as a completed run: %d", r.Runs())
	}

	e, _ := ByName("fig17")
	outs, err := RunExperiments(r, []Experiment{e}, ExecOptions{Jobs: 4})
	if err == nil {
		t.Fatal("RunExperiments succeeded with an unknown workload")
	}
	if !strings.Contains(err.Error(), `unknown workload "nope"`) {
		t.Fatalf("joined error does not name the workload: %v", err)
	}
	if outs[0].Err == nil || outs[0].Blocks != nil {
		t.Fatalf("failed experiment should carry Err and no Blocks: %+v", outs[0])
	}
}

// TestScaledAwayFootprintError forces the footprint-scaled-away
// misconfiguration and checks it comes back through the pool's cell-error
// path — an error naming the offending cell — rather than the panic it used
// to be.
func TestScaledAwayFootprintError(t *testing.T) {
	cfg := Config{
		Workloads:      []string{"omnetpp"},
		ScaleDivisor:   1 << 40, // scales every footprint to zero
		WarmupAccesses: 1,
		Window:         engine.Microsecond,
	}
	r := NewRunner(cfg)
	e, _ := ByName("fig17")
	outs, err := RunExperiments(r, []Experiment{e}, ExecOptions{Jobs: 2})
	if err == nil {
		t.Fatal("RunExperiments succeeded despite a zero footprint")
	}
	if !strings.Contains(err.Error(), "footprint scaled away") ||
		!strings.Contains(err.Error(), "omnetpp/nocomp/none") {
		t.Fatalf("error missing cause or cell key: %v", err)
	}
	if strings.Contains(err.Error(), "panic") {
		t.Fatalf("misconfiguration surfaced as a panic: %v", err)
	}
	if outs[0].Err == nil {
		t.Fatal("failed experiment has nil Err")
	}
}

// TestProgressCallback checks the progress stream dylectsim draws from the
// settlement hook against the plan's size: each call settles a cell not
// seen before, so the count of settled cells is monotone, and it finishes
// at done == total.
func TestProgressCallback(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(microConfig())
	var mu sync.Mutex
	var dones []int
	seen := map[string]bool{}
	e, _ := ByName("fig19")
	lastTotal := len(PlanExperiments(r.Cfg, []Experiment{e}))
	r.SetCellTelemetry(func(s CellSettlement) {
		mu.Lock()
		seen[s.Key] = true
		dones = append(dones, len(seen))
		mu.Unlock()
	})
	_, err := RunExperiments(r, []Experiment{e}, ExecOptions{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) == 0 {
		t.Fatal("progress callback never fired")
	}
	for i := 1; i < len(dones); i++ {
		if dones[i] != dones[i-1]+1 {
			t.Fatalf("progress not monotone: %v", dones)
		}
	}
	if dones[len(dones)-1] != lastTotal {
		t.Fatalf("final progress %d != planned total %d", dones[len(dones)-1], lastTotal)
	}
}
