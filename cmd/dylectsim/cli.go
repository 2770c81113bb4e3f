package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"dylect/internal/atomicio"
	"dylect/internal/engine"
	"dylect/internal/harness"
)

// cli parses args and runs the requested experiments, writing human output
// to out and progress/timing to errOut. Everything on out is deterministic
// — byte-identical across -jobs values — so stdout can be diffed or golden-
// tested; wall-clock noise (progress, ETA, elapsed) goes to errOut only.
// It returns a process exit code. main stays a thin shell so the whole
// command is testable.
//
// ctx gates cell starts: when it is canceled (SIGINT/SIGTERM in main), the
// pool drains gracefully — in-flight simulations finish and checkpoint,
// queued ones are skipped — partial results are still exported, and the exit
// code is 130.
func cli(ctx context.Context, args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("dylectsim", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		exp           = fs.String("exp", "all", "experiment name (see -list) or 'all'")
		list          = fs.Bool("list", false, "list experiments and exit")
		quick         = fs.Bool("quick", false, "fast config: 4 workloads, shorter windows")
		workloads     = fs.String("workloads", "", "comma-separated workload subset")
		scale         = fs.Uint64("scale", 0, "footprint scale divisor override")
		warmup        = fs.Uint64("warmup", 0, "warmup accesses per core override")
		windowUS      = fs.Uint64("window", 0, "timed window in microseconds override")
		seed          = fs.Int64("seed", 0, "workload generator seed")
		jobs          = fs.Int("jobs", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		jsonOut       = fs.String("json", "", "also dump raw per-run results as JSON to this file (written atomically)")
		audit         = fs.Bool("audit", false, "walk translator-state invariants during every run; violations fail the cell")
		checkpoint    = fs.String("checkpoint", "", "persist completed cells to this directory and resume from it")
		storeBudgetMB = fs.Int64("store-budget-mb", 0, "checkpoint store byte budget in MiB; least-recently-used records evict beyond it (0 = unbounded)")
		cellTO        = fs.Duration("cell-timeout", 0, "per-cell watchdog: abandon a cell producing no result within this duration (0 = off)")
		retries       = fs.Int("retries", 0, "retry a cell's transient failures up to this many times")
		backoff       = fs.Duration("retry-backoff", 100*time.Millisecond, "backoff before the first retry, doubled for each later one up to 10s (or to the backoff, if longer)")

		metricsOut     = fs.String("metrics-out", "", "write per-cell interval samples as NDJSON to this file (written atomically)")
		metricsSamples = fs.Int("metrics-samples", 32, "interval samples per cell when -metrics-out is set")
		traceOut       = fs.String("trace-out", "", "write per-cell structured events as Chrome trace-event JSON (Perfetto-loadable) to this file")
		traceCap       = fs.Int("trace-cap", 0, "per-cell event ring capacity for -trace-out (0 = default 65536; oldest events drop beyond it)")
		profileOut     = fs.String("profile-out", "", "write per-cell wall time and peak RSS as JSON to this file (nondeterministic; kept out of -json)")
		pprofCPU       = fs.String("pprof-cpu", "", "write a CPU profile of the whole run to this file (go tool pprof)")
		pprofMem       = fs.String("pprof-mem", "", "write a heap profile at exit to this file (go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Fprintf(out, "%-12s %s\n", e.Name, e.Title)
		}
		return 0
	}

	cfg := harness.Full()
	if *quick {
		cfg = harness.Quick()
	}
	if *workloads != "" {
		cfg.Workloads = strings.Split(*workloads, ",")
	}
	if *scale != 0 {
		cfg.ScaleDivisor = *scale
	}
	if *warmup != 0 {
		cfg.WarmupAccesses = *warmup
	}
	if *windowUS != 0 {
		cfg.Window = engine.Time(*windowUS) * engine.Microsecond
	}
	cfg.Seed = *seed
	cfg.Audit = *audit
	if *metricsOut != "" {
		cfg.MetricsSamples = *metricsSamples
	}
	if *traceOut != "" {
		cfg.Trace = true
		cfg.TraceCap = *traceCap
	}

	if *pprofCPU != "" {
		stop, err := startCPUProfile(*pprofCPU)
		if err != nil {
			fmt.Fprintf(out, "pprof: %v\n", err)
			return 2
		}
		defer stop()
	}
	if *pprofMem != "" {
		defer func() {
			if err := writeHeapProfile(*pprofMem); err != nil {
				fmt.Fprintf(errOut, "pprof: %v\n", err)
			}
		}()
	}

	runner := harness.NewRunner(cfg)
	var cp *harness.Checkpoint
	if *checkpoint != "" {
		var err error
		cp, err = harness.OpenCheckpointStore(*checkpoint, cfg, harness.StoreOptions{
			MaxBytes: *storeBudgetMB << 20,
			Log:      errOut,
		})
		if err != nil {
			fmt.Fprintf(out, "%v\n", err)
			return 2
		}
		defer cp.Close()
		st := cp.StoreStats()
		fmt.Fprintf(errOut, "store %s: %d records verified, %d quarantined at open\n",
			*checkpoint, st.OpenVerified, st.OpenQuarantined)
		runner.AttachCheckpoint(cp)
	}
	var selected []harness.Experiment
	if *exp == "all" {
		selected = harness.Experiments()
	} else {
		for _, name := range strings.Split(*exp, ",") {
			e, ok := harness.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(out, "unknown experiment %q; use -list\n", name)
				return 2
			}
			selected = append(selected, e)
		}
	}

	runner.SetContext(ctx)
	runner.SetCellTimeout(*cellTO)
	runner.SetRetries(*retries, *backoff)
	planned := len(harness.PlanExperiments(runner.Cfg, selected))
	start := time.Now()
	runner.SetCellTelemetry(progressLine(errOut, start, planned))
	outs, err := harness.RunExperiments(runner, selected, harness.ExecOptions{Jobs: *jobs})
	fmt.Fprintln(errOut)

	interrupted := ctx != nil && ctx.Err() != nil
	if interrupted {
		fmt.Fprintf(errOut, "interrupted: drained in-flight cells; exporting partial results\n")
	}

	for _, eo := range outs {
		if eo.Err != nil {
			fmt.Fprintf(out, "== %s (%s)\n\n!! failed: %v\n\n", eo.Experiment.Title, eo.Experiment.Name, eo.Err)
			continue
		}
		fmt.Fprintf(out, "== %s (%s)\n\n", eo.Experiment.Title, eo.Experiment.Name)
		for _, b := range eo.Blocks {
			fmt.Fprintln(out, b)
		}
	}
	fmt.Fprintf(errOut, "%d simulations in %.1fs\n", runner.Runs(), time.Since(start).Seconds())
	if cp != nil {
		st := cp.StoreStats()
		fmt.Fprintf(errOut, "store: %d hits, %d misses, %d puts, %d evictions, %d quarantined\n",
			st.Hits, st.Misses, st.Puts, st.Evictions, st.Quarantined)
	}

	export := func(name, path string, gen func() ([]byte, error)) bool {
		if path == "" {
			return true
		}
		data, gerr := gen()
		if gerr != nil {
			fmt.Fprintf(out, "%s export: %v\n", name, gerr)
			return false
		}
		if werr := atomicio.WriteFile(path, data, 0o644); werr != nil {
			fmt.Fprintf(out, "%s export: %v\n", name, werr)
			return false
		}
		fmt.Fprintf(errOut, "%s written to %s\n", name, path)
		return true
	}
	if !export("json", *jsonOut, runner.ExportJSON) {
		return 1
	}
	if !export("metrics", *metricsOut, runner.ExportMetricsNDJSON) {
		return 1
	}
	if !export("trace", *traceOut, runner.ExportTraceJSON) {
		return 1
	}
	if !export("profile", *profileOut, runner.ExportProfileJSON) {
		return 1
	}
	if interrupted {
		return 130
	}
	if err != nil {
		return 1
	}
	return 0
}

// progressLine returns a settlement hook that counts settled cells against
// the planned total and redraws one carriage-returned progress/ETA line on
// w. A cell the plan missed raises the total with the count.
func progressLine(w io.Writer, start time.Time, planned int) func(harness.CellSettlement) {
	var mu sync.Mutex
	done := 0
	return func(harness.CellSettlement) {
		mu.Lock()
		defer mu.Unlock()
		done++
		total := max(planned, done)
		elapsed := time.Since(start)
		eta := elapsed / time.Duration(done) * time.Duration(total-done)
		fmt.Fprintf(w, "\rcells %d/%d  elapsed %s  eta %s   ",
			done, total, elapsed.Round(time.Second), eta.Round(time.Second))
	}
}
