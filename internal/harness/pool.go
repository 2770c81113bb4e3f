package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// This file is the parallel experiment executor. The flow is:
//
//  1. Plan: every selected experiment is dry-run against a planning Runner
//     whose get() records cell keys and returns zero results, yielding the
//     exact cell set the real run will need, in first-request order.
//     Planning is cheap (no simulation) and sound because experiments
//     enumerate their cells from static loops, never from prior results.
//  2. Warm: the plan claims every fresh cell's flight up front and starts
//     the cells grouped by warm key, so each group shares one functional
//     warmup (warmshare.go); the single-flight cache ensures exactly one
//     simulation per unique key and the jobs semaphore bounds how many
//     execute at once.
//  3. Merge: experiment functions run concurrently, block on the in-flight
//     cells they need, and their output blocks are collected into a slice
//     indexed by registration order — so the merged output is deterministic
//     regardless of cell or experiment completion order.
//
// Parallel execution cannot change any reported number: each system.Run is
// hermetic (internal/system), so a cell's Result is a pure function of its
// key plus the Runner config, independent of scheduling. pool_test.go pins
// this with a jobs=1 vs jobs=N byte-equivalence test.

// ExecOptions configures a parallel experiment run. The runner's own
// setters hold every other knob: SetContext, SetCellTimeout, SetRetries,
// and SetCellTelemetry for per-cell progress.
type ExecOptions struct {
	// Jobs bounds concurrent simulations; <=0 means GOMAXPROCS.
	Jobs int
}

// ExperimentOutput is one experiment's outcome from RunExperiments.
type ExperimentOutput struct {
	Experiment Experiment
	// Blocks is the experiment's rendered output, nil if it failed.
	Blocks []string
	// Err reports a failed cell (with its key) or an experiment panic.
	Err error
}

// RunExperiments executes the selected experiments over the runner's
// configuration with up to opts.Jobs concurrent simulations. Outputs are
// returned in registration order. A cell that fails (unknown workload,
// simulator panic) fails the experiments that need it — with the offending
// cell's key in the error — without crashing the process or aborting
// unrelated experiments. The returned error joins all per-experiment
// failures.
func RunExperiments(r *Runner, exps []Experiment, opts ExecOptions) ([]ExperimentOutput, error) {
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	r.SetJobs(jobs)
	outs := runPlan(r, planCells(r.Cfg, exps), exps)
	var errs []error
	for i := range outs {
		if outs[i].Err != nil {
			errs = append(errs, outs[i].Err)
		}
	}
	return outs, errors.Join(errs...)
}

// planCells dry-runs the experiments against a planning runner sharing cfg
// (so spec normalization matches) and returns the deduplicated cell set in
// first-request order. Experiments that panic during planning plan nothing
// further; the real run surfaces their error.
func planCells(cfg Config, exps []Experiment) []CellSpec {
	p := NewRunner(cfg)
	p.planning = true
	for _, e := range exps {
		func() {
			defer func() { _ = recover() }()
			e.Run(p)
		}()
	}
	return p.planOrder
}

// PlannedCell identifies one cell an experiment list will simulate. The
// serving layer sizes admission control from the plan's length (its cost
// model) and keys its per-(workload, design) circuit breakers from the
// cell key.
type PlannedCell struct {
	CellSpec
	// Cell is the spec's CellKey — the same string cell errors, the cell
	// hook, and the settlement hook carry.
	Cell string
}

// PlanExperiments dry-runs the experiment list against cfg and returns the
// exact deduplicated cell set the real run will simulate, in first-request
// order. Planning is cheap: no simulation executes.
func PlanExperiments(cfg Config, exps []Experiment) []PlannedCell {
	plan := planCells(cfg, exps)
	out := make([]PlannedCell, len(plan))
	for i, k := range plan {
		out[i] = PlannedCell{CellSpec: k, Cell: k.CellKey()}
	}
	return out
}

// FreshCost reports how many of the experiment list's planned cells are not
// yet in the runner's cache — the number of new simulations a request for
// exps would trigger right now. Cells in flight count as fresh (their cost
// is already being paid, but the caller will still wait on them); cells
// resident in an attached durable store count as free, so admission pricing
// stays accurate across a warm restart.
func (r *Runner) FreshCost(exps []Experiment) int {
	plan := planCells(r.Cfg, exps)
	r.mu.Lock()
	cp := r.checkpoint
	missing := plan[:0]
	for _, key := range plan {
		if _, ok := r.cache[key]; !ok {
			missing = append(missing, key)
		}
	}
	r.mu.Unlock()
	fresh := 0
	for _, key := range missing {
		if cp != nil && cp.Has(key) {
			continue
		}
		fresh++
	}
	return fresh
}

// RunShared executes experiments against a runner view without mutating any
// runner-global knob: no worker-pool resize. It is the request-scoped
// counterpart of RunExperiments for a
// long-lived service where many requests share one memoizing runner — each
// request wraps the shared runner with WithContext and calls RunShared, so
// its deadline gates only its own cells and waits. Outputs are returned in
// the given order; per-experiment failures are reported in the outputs, not
// joined into a process-level error.
func RunShared(r *Runner, exps []Experiment) []ExperimentOutput {
	return runPlan(r, planCells(r.Cfg, exps), exps)
}

// runPlan runs the experiments concurrently over their plan and returns
// their outputs in the given order. It first starts every planned cell,
// grouped by warm key (warmshare.go), through the single-flight cache, so
// cells overlap regardless of experiment structure; cells an experiment
// needs beyond the plan (a planning miss) are still simulated lazily and
// merely lose overlap. A failed cell or a panic fails only the experiments
// it reaches, reported in their outputs. It returns once the plan has
// settled or, on a view, its context is done.
func runPlan(r *Runner, plan []CellSpec, exps []Experiment) []ExperimentOutput {
	settled := r.startPlan(plan)
	outs := make([]ExperimentOutput, len(exps))
	var wg sync.WaitGroup
	for i, e := range exps {
		outs[i].Experiment = e
		wg.Add(1)
		go func(i int, e Experiment) {
			defer wg.Done()
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				if ce, ok := p.(cellError); ok {
					outs[i].Err = fmt.Errorf("experiment %s: %w", e.Name, ce.err)
					return
				}
				outs[i].Err = fmt.Errorf("experiment %s: panic: %v", e.Name, p)
			}()
			outs[i].Blocks = e.Run(r)
		}(i, e)
	}
	wg.Wait()
	select {
	case <-settled:
	case <-r.waitCtx().Done():
	}
	return outs
}
