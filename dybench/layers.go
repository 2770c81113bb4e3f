package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"dylect/internal/cellstore"
	"dylect/internal/harness"
	"dylect/internal/system"
	"dylect/internal/trace"
)

// Layer probes of a traced run. Each times one layer's public entry point
// directly, from outside, on the workload's own configuration and warm state.

// layerInputs is the warm state a workload hands to the probes.
type layerInputs struct {
	cfg harness.Config
	// runner is warm with every cell in specs; ExecuteCell on it is the
	// worker-side cell path without transport.
	runner *harness.Runner
	specs  []harness.CellSpec
	// sets are experiment lists whose cells are warm in setRun (runner when
	// nil); the harness probe plans, renders and exports each.
	sets   [][]harness.Experiment
	setRun *harness.Runner
	// haveFabric marks a workload that measured the fabric layer itself;
	// otherwise it comes from a short fabric-dispatch run, as the serve
	// layer always comes from a short serve run.
	haveFabric bool
}

// probeDesigns are the four evaluated designs at the setting each is
// evaluated at.
var probeDesigns = []struct {
	d system.Design
	s system.Setting
}{
	{system.DesignNoComp, system.SettingNone},
	{system.DesignTMCC, system.SettingHigh},
	{system.DesignDyLeCT, system.SettingHigh},
	{system.DesignNaive, system.SettingHigh},
}

func commonLayers(ctx context.Context, o opts, m metricSet, in layerInputs) error {
	if err := systemLayers(in.cfg, m); err != nil {
		return err
	}
	if err := traceLayers(in.cfg, m); err != nil {
		return err
	}
	setRun := in.setRun
	if setRun == nil {
		setRun = in.runner
	}
	if err := harnessLayers(ctx, setRun, in.sets, m); err != nil {
		return err
	}
	payloads, err := workerCellLayers(ctx, o, in.runner, in.specs, m)
	if err != nil {
		return err
	}
	if err := cellstoreLayers(o, payloads, m); err != nil {
		return err
	}
	if err := miniServe(ctx, o, m); err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	if !in.haveFabric {
		if err := miniFabric(ctx, o, m); err != nil {
			return fmt.Errorf("fabric probe: %w", err)
		}
	}
	return nil
}

// cellOptions rebuilds the system.Options the harness runs for a
// default-variant cell.
func cellOptions(cfg harness.Config, wl string, d system.Design, s system.Setting) (system.Options, error) {
	w, ok := trace.ByName(wl)
	if !ok {
		return system.Options{}, fmt.Errorf("unknown workload %q", wl)
	}
	return system.Options{
		Workload:       w,
		Design:         d,
		Setting:        s,
		HugePages:      true,
		CTECacheBytes:  harness.NewRunner(cfg).ScaledCTECache(128 << 10),
		Granularity:    4 << 10,
		GroupSize:      3,
		WarmupAccesses: cfg.WarmupAccesses,
		Window:         cfg.Window,
		ScaleDivisor:   cfg.ScaleDivisor,
		FootprintFloor: cfg.FootprintFloor,
		Seed:           cfg.Seed,
	}, nil
}

// cellSplit times one cell three ways: full, warmup with a 1 ps window, and
// no warmup with a 1 ps window. Differencing the fastest run of each splits
// the cell into build (including collect), functional warmup and the timed
// window; as for the end-to-end metrics, the fastest run is the one the host
// disturbed least.
type cellSplit struct {
	full, warm, build []float64 // ms per rep
	events            uint64
	mallocs, bytes    uint64 // of one full run
}

func (c cellSplit) buildMS() float64  { return slices.Min(c.build) }
func (c cellSplit) warmupMS() float64 { return slices.Min(c.warm) - slices.Min(c.build) }
func (c cellSplit) windowMS() float64 { return slices.Min(c.full) - slices.Min(c.warm) }

func splitCell(opts system.Options, reps int) (cellSplit, error) {
	var c cellSplit
	timed := func(o system.Options) (*system.Result, float64, error) {
		t0 := time.Now()
		res, err := system.RunE(o)
		return res, float64(time.Since(t0)) / 1e6, err
	}
	warm := opts
	warm.Window = 1
	build := warm
	build.WarmupAccesses = 0
	for rep := 0; rep < reps; rep++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, ms, err := timed(opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			return c, err
		}
		if rep > 0 && res.Events != c.events {
			return c, fmt.Errorf("%s/%s: events %d then %d: the simulation is not deterministic",
				opts.Workload.Name, opts.Design, c.events, res.Events)
		}
		c.events = res.Events
		c.mallocs = after.Mallocs - before.Mallocs
		c.bytes = after.TotalAlloc - before.TotalAlloc
		c.full = append(c.full, ms)
		if _, ms, err = timed(warm); err != nil {
			return c, err
		}
		c.warm = append(c.warm, ms)
		if _, ms, err = timed(build); err != nil {
			return c, err
		}
		c.build = append(c.build, ms)
	}
	return c, nil
}

// systemLayers splits a cell of each design on the configuration's first
// workload.
func systemLayers(cfg harness.Config, m metricSet) error {
	var build, windowMS, allocs, allocMB float64
	var events uint64
	for _, pd := range probeDesigns {
		opts, err := cellOptions(cfg, cfg.Workloads[0], pd.d, pd.s)
		if err != nil {
			return err
		}
		c, err := splitCell(opts, 3)
		if err != nil {
			return err
		}
		build += c.buildMS()
		windowMS += c.windowMS()
		events += c.events
		allocs += float64(c.mallocs)
		allocMB += float64(c.bytes) / (1 << 20)
		m.set("system.warmup_ms."+pd.d.String(), c.warmupMS(), "ms")
		m.set("system.window_ms."+pd.d.String(), c.windowMS(), "ms")
	}
	n := float64(len(probeDesigns))
	m.set("system.build_ms", build/n, "ms")
	m.set("system.window_ns_per_event", windowMS*1e6/float64(events), "ns")
	m.set("system.events", float64(events), "count")
	m.set("system.allocs_per_cell", allocs/n, "count")
	m.set("system.alloc_mb_per_cell", allocMB/n, "MB")
	return nil
}

// traceLayers times direct Generator.Next calls on the configuration's first
// workload, scaled the way a cell scales it.
func traceLayers(cfg harness.Config, m metricSet) error {
	opts, err := cellOptions(cfg, cfg.Workloads[0], system.DesignNoComp, system.SettingNone)
	if err != nil {
		return err
	}
	w := opts.Workload
	w.FootprintBytes /= cfg.ScaleDivisor
	if floor := min(opts.Workload.FootprintBytes, cfg.FootprintFloor); w.FootprintBytes < floor {
		w.FootprintBytes = floor
	}
	w.FootprintBytes &^= (8 << 20) - 1
	g := w.NewGenerator(0, cfg.Seed+1)
	var a trace.Access
	const calls = 1 << 20
	var ns []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			g.Next(&a)
		}
		ns = append(ns, float64(time.Since(t0))/calls)
	}
	m.set("trace.next_ns", median(ns), "ns")
	return nil
}

// harnessLayers plans, renders (RunShared on a warm view) and exports each
// experiment list against a warm runner.
func harnessLayers(ctx context.Context, r *harness.Runner, sets [][]harness.Experiment, m metricSet) error {
	var plan, render, export []float64
	for rep := 0; rep < 3; rep++ {
		for _, set := range sets {
			t0 := time.Now()
			harness.PlanExperiments(r.Cfg, set)
			t1 := time.Now()
			for _, out := range harness.RunShared(r.WithContext(ctx), set) {
				if out.Err != nil {
					return out.Err
				}
			}
			t2 := time.Now()
			if _, err := r.ExportJSONFor(set); err != nil {
				return err
			}
			t3 := time.Now()
			plan = append(plan, float64(t1.Sub(t0))/1e6)
			render = append(render, float64(t2.Sub(t1))/1e6)
			export = append(export, float64(t3.Sub(t2))/1e6)
		}
	}
	m.set("harness.plan_ms", mean(plan), "ms")
	m.set("harness.render_ms", mean(render), "ms")
	m.set("harness.export_ms", mean(export), "ms")
	return nil
}

// specsOf lists the default-variant cells of an experiment list's plan as
// fabric cell specs (plus perfect-CTE cells, whose key names the variant).
func specsOf(cfg harness.Config, exps []harness.Experiment) []harness.CellSpec {
	var out []harness.CellSpec
	seen := map[string]bool{}
	for _, c := range harness.PlanExperiments(cfg, exps) {
		spec := harness.CellSpec{Workload: c.Workload, Design: c.Design, Setting: c.Setting, HugePages: true}
		switch strings.TrimPrefix(c.Cell, c.Workload+"/"+c.Design+"/"+c.Setting) {
		case "":
		case "/perfectCTE":
			spec.PerfectCTE = true
		default:
			continue
		}
		if !seen[c.Cell] {
			seen[c.Cell] = true
			out = append(out, spec)
		}
	}
	return out
}

// workerCellLayers times in-process ExecuteCell, the worker side of a fabric
// dispatch without transport, and returns each cell's payload.
func workerCellLayers(ctx context.Context, o opts, r *harness.Runner, specs []harness.CellSpec, m metricSet) (map[string][]byte, error) {
	payloads := map[string][]byte{}
	var ms []float64
	before := r.Runs()
	for rep := 0; rep < 3; rep++ {
		for _, spec := range specs {
			t0 := time.Now()
			p, err := r.ExecuteCell(ctx, spec)
			if err != nil {
				return nil, err
			}
			ms = append(ms, float64(time.Since(t0))/1e6)
			payloads[spec.CellKey()] = p
		}
	}
	if n := r.Runs() - before; n > 0 {
		fmt.Fprintf(o.log, "dybench: worker-cell probe simulated %d cells that were not warm\n", n)
	}
	m.set("fabric.worker_cell_ms", mean(ms), "ms")
	return payloads, nil
}

// cellstoreLayers puts, gets and envelope-verifies every payload in a fresh
// store.
func cellstoreLayers(o opts, payloads map[string][]byte, m metricSet) error {
	dir, err := os.MkdirTemp(o.work, "cellstore-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := cellstore.Open(cellstore.Options{Dir: dir, Schema: system.SchemaVersion})
	if err != nil {
		return err
	}
	defer st.Close()
	keys := make([]string, 0, len(payloads))
	for k := range payloads {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var put, get, verify, kb []float64
	for _, k := range keys {
		t0 := time.Now()
		if err := st.Put("probe/"+k, payloads[k]); err != nil {
			return err
		}
		put = append(put, float64(time.Since(t0))/1e6)
		kb = append(kb, float64(len(payloads[k]))/1024)
	}
	for _, k := range keys {
		t0 := time.Now()
		got, ok := st.Get("probe/" + k)
		get = append(get, float64(time.Since(t0))/1e6)
		if !ok || !bytes.Equal(got, payloads[k]) {
			return fmt.Errorf("cellstore: %s did not read back", k)
		}
	}
	for _, k := range keys {
		env, err := cellstore.EncodeEnvelope(system.SchemaVersion, k, payloads[k])
		if err != nil {
			return err
		}
		t0 := time.Now()
		got, err := cellstore.DecodeEnvelope(system.SchemaVersion, k, env)
		verify = append(verify, float64(time.Since(t0))/1e6)
		if err != nil || !bytes.Equal(got, payloads[k]) {
			return fmt.Errorf("cellstore: envelope of %s did not verify: %v", k, err)
		}
	}
	m.set("cellstore.put_ms", mean(put), "ms")
	m.set("cellstore.get_ms", mean(get), "ms")
	m.set("cellstore.envelope_verify_ms", mean(verify), "ms")
	m.set("cellstore.payload_kb", mean(kb), "KiB")
	return nil
}
