// Command dybench is the repository benchmark. It drives the simulator, the
// experiment harness, the HTTP service, the fabric and the cell store through
// their public entry points, times them from outside, checks every output
// against an oracle, and prints one JSON result line.
//
//	dybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of a traced run, and the spans are written
// under .bench_build/dybench-spans. README.md describes the workloads and the
// metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// setupReps is how many times an untraced run repeats its set-up; setup_s
// is their median. Tests lower it.
var setupReps = 3

// runLimit bounds a whole run; the caller allows 180 s.
const runLimit = 170 * time.Second

// opts are the run parameters every workload receives.
type opts struct {
	seed    int64
	seconds time.Duration
	work    string // scratch directory inside the checkout
	log     io.Writer
}

// rng returns a generator for one named input stream of the run, so that each
// stream depends on the seed alone and not on how much another consumed.
func (o opts) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(o.seed*7919 + stream))
}

// seg is what a run of passes measured.
type seg struct {
	cells  int // cells settled by passes that passed their check
	tally  tally
	runs   []float64 // simulations per pass (harness.Runner.Runs)
	passes []passTime
}

func (s *seg) add(o seg) {
	s.cells += o.cells
	s.tally.attempted += o.tally.attempted
	s.tally.failed += o.tally.failed
	s.runs = append(s.runs, o.runs...)
	s.passes = append(s.passes, o.passes...)
}

// whole is the run as one window.
func (s seg) whole() window { return windows(s.passes, math.MaxInt)[0] }

// fixture is one set-up workload, ready to run passes.
type fixture interface {
	// pass runs the workload's fixed work once; spans is nil when untraced.
	pass(spans *spanLog) (seg, error)
	// layers measures the per-layer metrics of a traced run into m.
	layers(ctx context.Context, o opts, spans *spanLog, m metricSet) error
	close()
}

// passLoop runs passes back to back until d has elapsed. With spans set,
// every second pass is traced, so that host drift slows traced and untraced
// passes alike, and the traced passes are returned apart; at least one pass
// of each kind runs.
func passLoop(ctx context.Context, d time.Duration, f fixture, spans *spanLog) (plain, traced seg, err error) {
	kinds := 1
	if spans != nil {
		kinds = 2
	}
	deadline := time.Now().Add(d)
	for i := 0; i < kinds || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return plain, traced, err
		}
		if i%kinds == 1 {
			s, err := f.pass(spans)
			if err != nil {
				return plain, traced, err
			}
			traced.add(s)
			continue
		}
		s, err := f.pass(nil)
		if err != nil {
			return plain, traced, err
		}
		plain.add(s)
	}
	return plain, traced, nil
}

// workload names a fixture constructor. README.md says why each exists.
type workload struct {
	name  string
	setup func(ctx context.Context, o opts) (fixture, error)
}

var workloads = []workload{
	{"sweep-paper", setupSweepPaper},
	{"fabric-dispatch", setupFabric},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "seconds of timed passes (a traced run runs twice as long)")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "dybench: need --workload (sweep-paper or fabric-dispatch), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	work, err := os.MkdirTemp(".bench_build", "dybench-work-")
	if err != nil {
		if err = os.MkdirAll(".bench_build", 0o755); err == nil {
			work, err = os.MkdirTemp(".bench_build", "dybench-work-")
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "dybench: scratch dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	o := opts{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		work:    work,
		log:     stderr,
	}
	res, err := measure(ctx, *w, o, *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "dybench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "dybench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "dybench: %s: %d of %d ops failed their output check\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// measure sets the workload up, runs it, and assembles the result: the
// end-to-end metrics for an untraced run, the per-layer metrics for a traced
// one. Host diagnostics go to the log either way.
func measure(ctx context.Context, w workload, o opts, traced bool) (*result, error) {
	refBefore := refLoopMS()
	steal0, total0 := cpuTicks()

	reps := setupReps
	if traced {
		reps = 1 // a traced run reports no setup_s
	}
	var setups []float64
	var f fixture
	for i := 0; i < reps; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		f, err = w.setup(ctx, o)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()

	m := metricSet{}
	var total seg
	if !traced {
		s, _, err := passLoop(ctx, o.seconds, f, nil)
		if err != nil {
			return nil, err
		}
		total = s
		all := s.whole()
		if len(all.lat) == 0 {
			return nil, errors.New("timed passes completed no ops")
		}
		ws := windows(s.passes, windowOps)
		cellsPerS, opsPerS := fastestWindow(ws).rates()
		p50, v50, n50 := quietestTail(ws, 50)
		p99, v99, n99 := tailPercentile(all.lat, 99)
		m.set("cells_per_s", cellsPerS, "1/s")
		m.set("requests_per_s", opsPerS, "1/s")
		m.set("op_p50_ms", v50, "ms")
		m.set("op_p99_ms", v99, "ms")
		m.set("setup_s", median(setups), "s")
		m.set("peak_rss_mb", peakRSSMB(), "MB")
		rawCells, _ := all.rates()
		r50, raw50, _ := tailPercentile(all.lat, 50)
		fmt.Fprintf(o.log, "dybench: %s seed %d: %d windows: fastest %.2f cells/s, quietest p%.0f=%.4gms over %d ops; whole run %d passes, %d cells in %.2fs = %.2f cells/s, p%.0f=%.4gms p%.0f=%.4gms over %d ops; setup %.3v s; failed %d/%d (share %.4f)\n",
			w.name, o.seed, len(ws), cellsPerS, p50, v50, n50,
			len(s.passes), s.cells, all.ms/1000, rawCells, r50, raw50, p99, v99, n99,
			setups, s.tally.failed, s.tally.attempted, s.tally.share())
	} else {
		// Untraced and traced passes alternate, so drift slows both kinds
		// alike; the gap between their median pass times is the tracing
		// overhead. Per-layer metrics come from the
		// traced spans and from the layer probes.
		rt0 := readRuntime()
		spans := newSpanLog()
		plain, tr, err := passLoop(ctx, 2*o.seconds, f, spans)
		if err != nil {
			return nil, err
		}
		rt1 := readRuntime()
		total = plain
		total.add(tr)
		plainMS, tracedMS := medianPassMS(plain.passes), medianPassMS(tr.passes)
		m.set("bench.tracing_overhead_frac", tracedMS/plainMS-1, "ratio")
		m.set("runtime.gc_cpu_frac", (rt1.gcCPU-rt0.gcCPU)/(rt1.allCPU-rt0.allCPU), "ratio")
		m.set("runtime.alloc_mb_per_op", (rt1.allocBytes-rt0.allocBytes)/(1<<20)/float64(len(total.whole().lat)), "MB")
		m.set("harness.simulations_per_pass", mean(total.runs), "count")
		if err := f.layers(ctx, o, spans, m); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		path, err := spans.write(filepath.Join(".bench_build", "dybench-spans"),
			fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(o.log, "dybench: %s seed %d: median pass untraced %.3f ms of %d, traced %.3f ms of %d; spans in %s\n",
			w.name, o.seed, plainMS, len(plain.passes), tracedMS, len(tr.passes), path)
	}

	refAfter := refLoopMS()
	steal1, total1 := cpuTicks()
	stealFrac := 0.0
	if total1 > total0 {
		stealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	fmt.Fprintf(o.log, "dybench: host ref_ms before=%.2f after=%.2f steal_frac=%.4f\n",
		refBefore, refAfter, stealFrac)
	if traced {
		m.set("host.ref_ms", (refBefore+refAfter)/2, "ms")
		m.set("host.steal_frac", stealFrac, "ratio")
	}
	return &result{
		Correct:   total.tally.failed == 0,
		Attempted: total.tally.attempted,
		Failed:    total.tally.failed,
		Metrics:   m,
	}, nil
}
