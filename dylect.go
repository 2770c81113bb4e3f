// Package dylect is a from-scratch reproduction of DyLeCT — "Achieving
// Huge-page-like Translation Performance for Hardware-compressed Memory"
// (ISCA 2024) — together with the full simulation stack its evaluation
// depends on: an event-driven CPU/cache/TLB/DDR4 model, the TMCC baseline,
// block- and page-granularity compression, synthetic versions of the
// paper's GraphBIG/SPEC/PARSEC workloads, and a harness that regenerates
// every table and figure of the paper.
//
// # Quick start
//
//	w, _ := dylect.WorkloadByName("bfs")
//	res := dylect.Simulate(dylect.RunOptions{
//		Workload:       w,
//		Design:         dylect.DesignDyLeCT,
//		Setting:        dylect.SettingHigh,
//		HugePages:      true,
//		ScaleDivisor:   8,
//		FootprintFloor: 192 << 20,
//		WarmupAccesses: 300_000,
//		Window:         200 * dylect.Microsecond,
//	})
//	fmt.Printf("IPC %.3f, CTE hit rate %.1f%%\n", res.IPC, res.CTEHitRate*100)
//
// # Regenerating the paper
//
//	runner := dylect.NewRunner(dylect.FullConfig())
//	for _, e := range dylect.Experiments() {
//		for _, block := range e.Run(runner) {
//			fmt.Println(block)
//		}
//	}
//
// The same functionality is available from the command line via
// cmd/dylectsim. See DESIGN.md for the system inventory and EXPERIMENTS.md
// for measured-vs-paper results.
package dylect

import (
	"dylect/internal/engine"
	"dylect/internal/harness"
	"dylect/internal/system"
	"dylect/internal/trace"
)

// Re-exported core types. The simulator lives under internal/; these
// aliases are the supported public surface.
type (
	// RunOptions configures a single full-system simulation.
	RunOptions = system.Options
	// Result carries the measurements of one simulation.
	Result = system.Result
	// Design selects the memory-controller design under test.
	Design = system.Design
	// Setting selects the paper's compression setting (Table 2).
	Setting = system.Setting
	// SystemConfig mirrors Table 3's microarchitecture parameters.
	SystemConfig = system.Config
	// Workload describes one synthetic benchmark.
	Workload = trace.Workload
	// HarnessConfig scopes the experiment harness.
	HarnessConfig = harness.Config
	// Runner memoizes simulation results across experiments.
	Runner = harness.Runner
	// Experiment names one regenerable table or figure.
	Experiment = harness.Experiment
	// ExecOptions configures a parallel experiment run (its worker count).
	ExecOptions = harness.ExecOptions
	// ExperimentOutput is one experiment's outcome from RunExperiments.
	ExperimentOutput = harness.ExperimentOutput
	// Time is simulated time in picoseconds.
	Time = engine.Time
)

// Designs under test.
const (
	DesignNoComp = system.DesignNoComp
	DesignTMCC   = system.DesignTMCC
	DesignDyLeCT = system.DesignDyLeCT
	DesignNaive  = system.DesignNaive
)

// Compression settings.
const (
	SettingLow  = system.SettingLow
	SettingHigh = system.SettingHigh
	SettingNone = system.SettingNone
)

// Time units.
const (
	Nanosecond  = engine.Nanosecond
	Microsecond = engine.Microsecond
	Millisecond = engine.Millisecond
)

// Simulate runs one full-system simulation (warmup + timed window) and
// returns its measurements.
func Simulate(opts RunOptions) *Result { return system.Run(opts) }

// DefaultSystemConfig returns Table 3's microarchitecture parameters.
func DefaultSystemConfig() SystemConfig { return system.Default() }

// Workloads returns the paper's twelve evaluation workloads.
func Workloads() []Workload { return trace.Workloads() }

// WorkloadByName finds a workload by its paper name (e.g. "bfs", "mcf").
func WorkloadByName(name string) (Workload, bool) { return trace.ByName(name) }

// WorkloadNames lists the workload names in paper order.
func WorkloadNames() []string { return trace.Names() }

// FullConfig returns the harness configuration used for EXPERIMENTS.md.
func FullConfig() HarnessConfig { return harness.Full() }

// QuickConfig returns a fast harness configuration (four workloads).
func QuickConfig() HarnessConfig { return harness.Quick() }

// NewRunner builds a memoizing experiment runner.
func NewRunner(cfg HarnessConfig) *Runner { return harness.NewRunner(cfg) }

// Experiments returns every regenerable table/figure in paper order.
func Experiments() []Experiment { return harness.Experiments() }

// ExperimentByName finds one experiment (e.g. "fig18").
func ExperimentByName(name string) (Experiment, bool) { return harness.ByName(name) }

// RunExperiments executes experiments over a bounded worker pool with
// single-flight memoization; outputs come back in registration order and
// are byte-identical regardless of worker count (DESIGN.md §8).
func RunExperiments(r *Runner, exps []Experiment, opts ExecOptions) ([]ExperimentOutput, error) {
	return harness.RunExperiments(r, exps, opts)
}
