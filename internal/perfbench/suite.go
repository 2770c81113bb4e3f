// Package perfbench is the simulator's allocation-trajectory harness: it
// executes a pinned suite of representative simulation cells, counts their
// simulated events, committed instructions and heap allocations, and
// records the results as schema-versioned BENCH_<n>.json snapshots that
// can be diffed with a configurable allocs/event threshold.
//
// Every dimension is a deterministic count, so the gate is hard and the
// host does not matter beyond its Go version. Wall-clock speed is measured
// by the repository benchmark (dybench/), not here. The suite is
// deliberately frozen: changing it invalidates every committed snapshot, so
// additions require refreshing the baseline (see DESIGN.md §13).
package perfbench

import (
	"dylect/internal/engine"
	"dylect/internal/system"
)

// SuiteVersion names the pinned cell set. Bump it whenever Suite() changes
// so Compare refuses to diff snapshots of different suites.
const SuiteVersion = "pinned-v1"

// Cell is one benchmarked simulation configuration. Every field is pinned:
// a cell's simulated outcome (and therefore its event count and allocation
// count) must be a pure function of the code under test.
type Cell struct {
	Name     string
	Workload string
	Design   system.Design
	Setting  system.Setting

	ScaleDivisor   uint64
	FootprintFloor uint64
	WarmupAccesses uint64
	Window         engine.Time
	Seed           int64
}

// suiteWorkloads are the representative workloads: one graph kernel with an
// irregular frontier (bfs), one pointer-chasing SPEC workload (mcf), and
// one PARSEC cache-resident workload (canneal). Together they cover the
// translator behaviors the paper sweeps: heavy expansion traffic, CTE-cache
// thrash, and steady-state ML0 residency.
var suiteWorkloads = []string{"bfs", "mcf", "canneal"}

// suiteDesigns pairs each design with the compression setting that
// exercises it the way the paper's evaluation does.
var suiteDesigns = []struct {
	design  system.Design
	setting system.Setting
}{
	{system.DesignNoComp, system.SettingNone},
	{system.DesignTMCC, system.SettingHigh},
	{system.DesignDyLeCT, system.SettingHigh},
	{system.DesignNaive, system.SettingHigh},
}

// Suite returns the pinned benchmark cells: every design × representative
// workload at a reduced-but-meaningful configuration (footprints floored at
// 96MB — still beyond the scaled CTE reach regime — with enough warmup to
// reach compression steady state). Fixed seed, fixed window.
func Suite() []Cell {
	var cells []Cell
	for _, d := range suiteDesigns {
		for _, w := range suiteWorkloads {
			cells = append(cells, Cell{
				Name:           w + "/" + d.design.String() + "/" + d.setting.String(),
				Workload:       w,
				Design:         d.design,
				Setting:        d.setting,
				ScaleDivisor:   32,
				FootprintFloor: 96 << 20,
				WarmupAccesses: 20_000,
				Window:         10 * engine.Microsecond,
				Seed:           0,
			})
		}
	}
	return cells
}
