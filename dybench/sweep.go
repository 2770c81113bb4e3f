package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"dylect/internal/engine"
	"dylect/internal/harness"
)

// Every workload runs at perfbench's scale: footprints divided by 32 and floored
// at 96 MiB, still beyond the scaled CTE reach.
func scaledConfig(workloads []string, warmup uint64, window engine.Time) harness.Config {
	return harness.Config{
		Workloads:      workloads,
		ScaleDivisor:   32,
		FootprintFloor: 96 << 20,
		WarmupAccesses: warmup,
		Window:         window,
	}
}

// quickWorkloads are harness.Quick's four representative workloads.
func quickWorkloads() []string { return harness.Quick().Workloads }

// sweepPaperConfig: 100k warmup accesses per core and a 20 µs window, so
// functional warmup is about 90% of a cell.
func sweepPaperConfig() harness.Config {
	return scaledConfig(quickWorkloads(), 100_000, 20*engine.Microsecond)
}

// pinnedConfig is perfbench's pinned cell configuration (20k warmup, 10 µs
// window) over the four Quick workloads; the serve and fabric workloads keep
// every registered experiment warm at it.
func pinnedConfig() harness.Config {
	return scaledConfig(quickWorkloads(), 20_000, 10*engine.Microsecond)
}

// paperFigures are the results-section figures: 28 cells over the Quick
// workloads (7 design/setting/perfectCTE variants each).
var paperFigures = []string{"fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24"}

func experimentsNamed(names []string) []harness.Experiment {
	out := make([]harness.Experiment, 0, len(names))
	for _, n := range names {
		e, ok := harness.ByName(n)
		if !ok {
			panic("dybench: unknown experiment " + n)
		}
		out = append(out, e)
	}
	return out
}

func shuffled(rng *rand.Rand, exps []harness.Experiment) []harness.Experiment {
	out := append([]harness.Experiment(nil), exps...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// exportOracle checks each pass's export against a pinned digest and against
// the first export it saw.
type exportOracle struct {
	pinned string
	first  string
}

func (x *exportOracle) check(export []byte) error {
	d := digest(export)
	if x.first == "" {
		x.first = d
	}
	if d != x.first {
		return fmt.Errorf("export %s differs from the first pass's %s", d, x.first)
	}
	if d != x.pinned {
		return fmt.Errorf("export %s differs from the pinned %s", d, x.pinned)
	}
	return nil
}

// checked reports whether a pass produced a correct export, logging why not.
func checked(log io.Writer, what string, runErr, expErr error, check func([]byte) error, export []byte) bool {
	err := runErr
	if err == nil {
		err = expErr
	}
	if err == nil {
		err = check(export)
	}
	if err != nil {
		fmt.Fprintf(log, "dybench: %s failed: %v\n", what, err)
		return false
	}
	return true
}

// cellTimer times each cell a Runner simulates, from the moment the cell
// holds a worker slot (where the runner calls its cell hook) to its
// settlement. The settlement record's own wall time would include the wait
// for a slot.
type cellTimer struct {
	mu    sync.Mutex
	start map[string]time.Time
	cells []timedCell
}

type timedCell struct {
	key   string
	start time.Time
	d     time.Duration
	err   error
}

func attachCellTimer(r *harness.Runner) *cellTimer {
	t := &cellTimer{start: map[string]time.Time{}}
	r.SetCellHook(func(key string) error {
		t.mu.Lock()
		t.start[key] = time.Now()
		t.mu.Unlock()
		return nil
	})
	r.SetCellTelemetry(func(c harness.CellSettlement) {
		now := time.Now()
		t.mu.Lock()
		defer t.mu.Unlock()
		if s, ok := t.start[c.Key]; ok {
			t.cells = append(t.cells, timedCell{c.Key, s, now.Sub(s), c.Err})
		}
	})
	return t
}

// ---- sweep-paper ----

type sweepPaper struct {
	cfg          harness.Config
	exps         []harness.Experiment
	cellsPerPass int
	rng          *rand.Rand
	oracle       exportOracle
	log          io.Writer
	last         *harness.Runner
}

func setupSweepPaper(ctx context.Context, o opts) (fixture, error) {
	p := &sweepPaper{
		cfg:    sweepPaperConfig(),
		exps:   experimentsNamed(paperFigures),
		rng:    o.rng(1),
		oracle: exportOracle{pinned: pinnedSweepPaper},
		log:    o.log,
	}
	p.cellsPerPass = len(harness.PlanExperiments(p.cfg, p.exps))
	// One untimed pass brings the heap to its steady size.
	s, err := p.pass(nil)
	if err != nil {
		return nil, err
	}
	if s.tally.failed > 0 {
		return nil, fmt.Errorf("warm-up pass failed its output check")
	}
	return p, nil
}

// pass is a fresh Runner, RunExperiments over the figures in a seeded order,
// and the export. Each simulated cell is one op.
func (p *sweepPaper) pass(spans *spanLog) (seg, error) {
	r := harness.NewRunner(p.cfg)
	timer := attachCellTimer(r)
	op := spans.newOp()
	exps := shuffled(p.rng, p.exps)
	t0 := time.Now()
	_, runErr := harness.RunExperiments(r, exps, harness.ExecOptions{Jobs: 2})
	t1 := time.Now()
	export, expErr := r.ExportJSON()
	d := time.Since(t0)
	spans.add(op, op, "harness.RunExperiments", t0, t1.Sub(t0))
	spans.add(op, op, "harness.ExportJSON", t1, d-t1.Sub(t0))
	spans.add(op, 0, "pass", t0, d)

	if runErr == nil && len(timer.cells) != p.cellsPerPass {
		runErr = fmt.Errorf("timed %d cells, planned %d", len(timer.cells), p.cellsPerPass)
	}
	ok := checked(p.log, "sweep-paper pass", runErr, expErr, p.oracle.check, export)
	s := seg{runs: []float64{float64(r.Runs())}}
	var lat []float64
	errs := 0
	for _, c := range timer.cells {
		lat = append(lat, float64(c.d)/1e6)
		spans.add(op, op, "harness.cell", c.start, c.d)
		if c.err != nil {
			errs++
		}
	}
	if ok {
		s.cells = p.cellsPerPass
	}
	s.passes = []passTime{{ms: float64(d) / 1e6, cells: s.cells, lat: lat}}
	s.tally.pass(p.cellsPerPass, errs, ok)
	p.last = r
	return s, nil
}

func (p *sweepPaper) layers(ctx context.Context, o opts, spans *spanLog, m metricSet) error {
	return commonLayers(ctx, o, m, layerInputs{
		cfg:    p.cfg,
		runner: p.last,
		sets:   [][]harness.Experiment{p.exps},
		specs:  specsOf(p.cfg, p.exps),
	})
}

func (p *sweepPaper) close() {}
