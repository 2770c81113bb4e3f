package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"dylect/internal/fabric"
	"dylect/internal/harness"
	"dylect/internal/system"
	"dylect/internal/telemetry"
)

// fabricDispatch is the fabric-dispatch workload: two memo-warm workers
// (serve.Server plus fabric.Worker on loopback) and a coordinator whose
// Coordinator.Execute serves a fresh coordinator-side Runner each pass.
type fabricDispatch struct {
	cfg     harness.Config
	exps    []harness.Experiment
	workers []*serveStack
	coord   *fabric.Coordinator
	met     *fabric.Metrics
	stop    context.CancelFunc
	rng     *rand.Rand
	oracle  exportOracle
	log     io.Writer
	last    *harness.Runner
}

func setupFabric(ctx context.Context, o opts) (fixture, error) {
	return newFabric(o, pinnedConfig(), harness.Experiments(), pinnedAll)
}

// newFabric boots the workers. The first simulates every cell of exps; the
// second shares its store and loads every cell from it, so both end
// memo-warm. The first worker's export is the local single-process export
// every pass must reproduce.
func newFabric(o opts, cfg harness.Config, exps []harness.Experiment, pinned string) (*fabricDispatch, error) {
	f := &fabricDispatch{
		cfg:    cfg,
		exps:   exps,
		rng:    o.rng(4),
		oracle: exportOracle{pinned: pinned},
		log:    o.log,
	}
	var urls []string
	for i := 0; i < 2; i++ {
		dir, err := os.MkdirTemp(o.work, "worker-")
		if err != nil {
			f.close()
			return nil, err
		}
		var shared *harness.Checkpoint
		if i > 0 {
			shared = f.workers[0].cp
		}
		st, err := bootServe(cfg, dir, shared, func(mux *http.ServeMux, st *serveStack) {
			fabric.NewWorker(fabric.WorkerOptions{
				Runner:     st.srv.Runner(),
				Checkpoint: st.cp,
				ConfigHash: harness.ConfigHash(cfg),
				Schema:     system.SchemaVersion,
				Ready:      st.srv.Ready,
			}).Register(mux)
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, st)
		if err := st.warm(exps); err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, st.url)
	}
	local, err := f.workers[0].srv.Runner().ExportJSON()
	if err == nil {
		err = f.oracle.check(local)
	}
	if err != nil {
		f.close()
		return nil, fmt.Errorf("local export: %w", err)
	}
	f.met = fabric.NewMetrics(telemetry.NewRegistry())
	f.coord = fabric.New(fabric.Config{
		Workers:    urls,
		ConfigHash: harness.ConfigHash(cfg),
		Schema:     system.SchemaVersion,
		Seed:       o.seed,
		Metrics:    f.met,
	})
	var cctx context.Context
	cctx, f.stop = context.WithCancel(context.Background())
	f.coord.Start(cctx)
	return f, nil
}

// pass sweeps exps, in a seeded order, through a fresh coordinator-side
// Runner; every cell is one timed Coordinator.Execute. The Runner has no
// store: adopting each payload costs an fsync, which on the shared-disk
// two-vCPU VM the benchmark was tuned on took most of a pass and spread pass
// times by half between runs. The store's Put, Get and envelope verify are
// timed by the traced run's cell-store probe instead.
//
// A pass runs on one CPU. A dispatch is a loopback ping-pong of about
// 0.1 ms; with two CPUs its latency depended on whether the host gave the
// process its second vCPU at that moment, which moved even the fastest
// dispatch of each cell by 16% between runs.
func (f *fabricDispatch) pass(spans *spanLog) (seg, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := harness.NewRunner(f.cfg)
	op := spans.newOp()
	var mu sync.Mutex
	var s seg
	var lat []float64
	errs := 0
	r.SetRemoteExecutor(func(ctx context.Context, spec harness.CellSpec) ([]byte, error) {
		t0 := time.Now()
		p, err := f.coord.Execute(ctx, spec)
		d := time.Since(t0)
		spans.add(op, op, "fabric.Execute", t0, d)
		mu.Lock()
		lat = append(lat, float64(d)/1e6)
		if err != nil {
			errs++
		}
		mu.Unlock()
		return p, err
	})
	exps := shuffled(f.rng, f.exps)
	t0 := time.Now()
	_, runErr := harness.RunExperiments(r, exps, harness.ExecOptions{Jobs: 2})
	t1 := time.Now()
	export, expErr := r.ExportJSON()
	d := time.Since(t0)
	spans.add(op, op, "harness.RunExperiments", t0, t1.Sub(t0))
	spans.add(op, op, "harness.ExportJSON", t1, d-t1.Sub(t0))
	spans.add(op, 0, "pass", t0, d)

	ok := checked(f.log, "fabric pass", runErr, expErr, f.oracle.check, export)
	s.runs = []float64{float64(r.Runs())}
	if ok {
		s.cells = len(lat) - errs
	}
	s.passes = []passTime{{ms: float64(d) / 1e6, cells: s.cells, lat: lat}}
	s.tally.pass(len(lat), errs, ok)
	f.last = r
	return s, nil
}

// fabricLayers reads the coordinator's dispatch counters.
func (f *fabricDispatch) fabricLayers(m metricSet) {
	var ok, all float64
	for _, w := range f.workers {
		for _, outcome := range []string{fabric.OutcomeOK, fabric.OutcomeError, fabric.OutcomeOrphaned,
			fabric.OutcomeVerifyFailed, fabric.OutcomeCanceled} {
			v := f.met.Dispatches.Value(w.url, outcome)
			all += v
			if outcome == fabric.OutcomeOK {
				ok += v
			}
		}
	}
	ratio := 0.0
	if all > 0 {
		ratio = ok / all
	}
	m.set("fabric.hedges_fired", f.met.Hedges.Value("fired"), "count")
	m.set("fabric.dispatch_ok_ratio", ratio, "ratio")
}

func (f *fabricDispatch) layers(ctx context.Context, o opts, spans *spanLog, m metricSet) error {
	f.fabricLayers(m)
	return commonLayers(ctx, o, m, layerInputs{
		cfg:        f.cfg,
		runner:     f.workers[0].srv.Runner(),
		specs:      specsOf(f.cfg, f.exps),
		sets:       [][]harness.Experiment{f.exps},
		setRun:     f.last,
		haveFabric: true,
	})
}

func (f *fabricDispatch) close() {
	if f.coord != nil {
		f.coord.Stop()
		f.stop()
	}
	// The second worker shares the first's store, so it closes first.
	for i := len(f.workers) - 1; i >= 0; i-- {
		f.workers[i].close()
	}
}

// miniFabric measures the fabric layer on a workload that does not exercise
// it: a one-second fabric-dispatch run over miniExperiments.
func miniFabric(ctx context.Context, o opts, m metricSet) error {
	f, err := newFabric(o, pinnedConfig(), experimentsNamed(miniExperiments), pinnedMini)
	if err != nil {
		return err
	}
	defer f.close()
	out, _, err := passLoop(ctx, time.Second, f, nil)
	if err != nil {
		return err
	}
	if out.tally.failed > 0 {
		return fmt.Errorf("%d dispatches failed", out.tally.failed)
	}
	f.fabricLayers(m)
	return nil
}
