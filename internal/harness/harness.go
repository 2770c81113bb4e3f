// Package harness regenerates every table and figure of the paper's
// evaluation. Each experiment is a function over a Runner, which memoizes
// full-system simulation results so the many figures that share the same
// underlying runs (18-23) simulate each configuration once.
//
// The Runner is a concurrency-safe single-flight memoizer: any number of
// goroutines may request cells, duplicates block on the first in-flight
// simulation, and at most Jobs simulations execute at once. RunExperiments
// (pool.go) builds on this to fan an experiment list's whole cell set out
// across a bounded worker pool.
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"dylect/internal/core"
	"dylect/internal/engine"
	"dylect/internal/metrics"
	"dylect/internal/system"
	"dylect/internal/trace"
)

// Config scopes the harness's simulations.
type Config struct {
	// Workloads to evaluate (paper order). Empty = all twelve.
	Workloads []string
	// ScaleDivisor shrinks footprints/DRAM for runtime (DESIGN.md §3).
	ScaleDivisor uint64
	// FootprintFloor keeps scaled footprints above the CTE reach regime.
	FootprintFloor uint64
	// WarmupAccesses per core before each timed window.
	WarmupAccesses uint64
	// Window is the timed simulation length.
	Window engine.Time
	// Seed perturbs workload generators.
	Seed int64
	// Audit enables the runtime invariant auditor inside every simulation
	// (system.Options.Audit): translator state is walked at the warmup
	// boundary, the window quarter points, and end of run, and any
	// violation fails the cell with a structured error. Audits are
	// read-only, so reported numbers are unchanged.
	Audit bool

	// MetricsSamples enables per-cell interval sampling: every simulated
	// cell records this many evenly spaced time-resolved samples across the
	// window (exported via ExportMetricsNDJSON). 0 disables sampling.
	MetricsSamples int
	// Trace enables per-cell structured event tracing (exported as Chrome
	// trace-event JSON via ExportTraceJSON); TraceCap overrides the event
	// ring capacity (0 = metrics.DefaultTraceCap). Recording is
	// observation-only: the deterministic ExportJSON bytes are unchanged
	// whether these are on or off (metrics_test.go pins this byte-for-byte).
	Trace    bool
	TraceCap int
}

// Full returns the configuration used for EXPERIMENTS.md: all workloads at
// 1/8 scale (GraphBIG kernels at 256MB footprints).
func Full() Config {
	return Config{
		Workloads:      trace.Names(),
		ScaleDivisor:   8,
		FootprintFloor: 192 << 20,
		WarmupAccesses: 600_000,
		Window:         300 * engine.Microsecond,
	}
}

// Quick returns a fast configuration for tests and benchmarks: four
// representative workloads, footprints floored at 192MB.
func Quick() Config {
	return Config{
		Workloads:      []string{"bfs", "mcf", "omnetpp", "canneal"},
		ScaleDivisor:   8,
		FootprintFloor: 192 << 20,
		WarmupAccesses: 300_000,
		Window:         200 * engine.Microsecond,
	}
}

// sweepWorkloads bounds the expensive parameter sweeps (Figures 5, 6, 25)
// to a representative subset when the full set is configured.
func (r *Runner) sweepWorkloads() []string {
	ws := r.workloads()
	if len(ws) <= 4 {
		return ws
	}
	return []string{"bfs", "sssp", "mcf", "canneal"}
}

// variant captures the per-run knobs beyond workload/design/setting. Every
// field participates in the cache key, the JSON export, and the export sort,
// so two cells that differ in any knob are distinct and deterministically
// ordered.
type variant struct {
	hugePages     bool
	cteCacheBytes int
	granularity   uint64
	groupSize     uint64
	perfectCTE    bool
	ranks         int
	// embedPTB enables TMCC's PTB-embedded CTE forwarding (Section III-A).
	embedPTB bool
	// directToML0 and samplePeriod override DyLeCT's promotion policy for
	// the ablation studies; samplePeriod 0 normalizes to the paper default.
	directToML0  bool
	samplePeriod uint64
}

func defaultVariant() variant { return variant{hugePages: true} }

type runKey struct {
	workload string
	design   system.Design
	setting  system.Setting
	variant
}

// String renders a cell key compactly for error messages and progress.
func (k runKey) String() string {
	s := fmt.Sprintf("%s/%s/%s", k.workload, k.design, k.setting)
	if !k.hugePages {
		s += "/4K"
	}
	if k.perfectCTE {
		s += "/perfectCTE"
	}
	if k.embedPTB {
		s += "/embedPTB"
	}
	if k.directToML0 {
		s += "/directToML0"
	}
	return s
}

// flight is one single-flight cache entry: the first requester simulates,
// every later requester blocks on done. Exactly one of res/err is set once
// done is closed. obs carries the cell's recorded observability data (nil
// when metrics are off); prof its wall-clock profile.
type flight struct {
	done chan struct{}
	// ctx is the starter's context, the one that gates the flight's start.
	ctx  context.Context
	res  *system.Result
	obs  *metrics.Data
	prof cellProfile
	err  error
}

// Runner memoizes simulation results behind a single-flight cache and a
// bounded worker pool. The zero value is not usable; construct with
// NewRunner. All methods are safe for concurrent use.
//
// A Runner is a lightweight view over shared state: WithContext returns a
// second view onto the same cache and worker pool whose cells are gated by
// a request-scoped context. The serving layer (internal/serve) gives every
// HTTP request its own view so client deadlines flow into cell execution
// while results stay memoized across all clients.
type Runner struct {
	Cfg Config

	*runnerState

	// reqCtx, when non-nil, is this view's request-scoped context
	// (WithContext): it gates the cells this view starts and bounds how
	// long this view's callers wait on in-flight cells. Nil on the base
	// runner, which uses the SetContext context instead.
	reqCtx context.Context
}

// runnerState is the cross-view shared core of a Runner: the single-flight
// cache, the worker pool, and every knob that must be common to all views.
type runnerState struct {
	mu    sync.Mutex
	cache map[runKey]*flight
	// sem bounds the number of simulations executing at once (SetJobs).
	sem chan struct{}
	// runs counts completed simulations; done counts settled cells
	// (including failed ones) for progress reporting.
	runs    int
	done    int
	planned int
	// onProgress, when set, is called with (settled, planned) after each
	// cell settles, serialized under mu; it must not call Runner methods.
	onProgress func(done, total int)

	// planning short-circuits get: record the key, return a zero Result.
	// Used by planCells to enumerate an experiment list's cell set.
	planning  bool
	planOrder []runKey

	// Resilience knobs (SetContext, SetCellTimeout, SetRetries,
	// SetCellHook, AttachCheckpoint). ctx gates *starting* cells — a
	// canceled context drains the pool gracefully: in-flight cells finish
	// (and checkpoint), queued ones fail fast with ctx's error.
	ctx          context.Context
	cellTimeout  time.Duration
	retries      int
	retryBackoff time.Duration
	// cellHook, when set, runs at the top of every cell attempt (inside
	// the watchdogged goroutine); a non-nil error fails the attempt. It
	// exists for fault injection (internal/faults.CellInjector).
	cellHook func(cellKey string) error
	// cellTelemetry, when set, is called once per settled cell with the
	// full settlement record (key, wall time, store-vs-fresh provenance,
	// final error), after the outcome is recorded but before waiters are
	// released. The serving layer feeds its circuit breaker and /metrics
	// instruments from it. It must not call back into the Runner's cell
	// path (Result/get); cache-surgery methods like EvictFailed are safe.
	cellTelemetry func(CellSettlement)
	// evictFailed, when true, removes failed cells from the cache once
	// they settle so a later request re-attempts them. The batch CLI keeps
	// failures memoized (a sweep should fail each cell once); a long-lived
	// service evicts them and relies on its circuit breaker to bound
	// re-attempt storms. Cells canceled before starting are always
	// evicted, in every mode.
	evictFailed bool
	// checkpoint, when attached, is consulted before simulating a cell and
	// updated after each success.
	checkpoint *Checkpoint
	// remote, when set, executes checkpoint-missing cells out of process
	// (SetRemoteExecutor); the coordinator side of internal/fabric installs
	// it. Local simulation never runs while it is set.
	remote RemoteExecutor

	// warm shares each planned warm key's functional warmup across its
	// cells (warmshare.go).
	warm warmShare
}

// NewRunner builds a Runner over a configuration. The worker pool defaults
// to a single job; RunExperiments (or SetJobs) widens it.
func NewRunner(cfg Config) *Runner {
	if len(cfg.Workloads) == 0 {
		cfg.Workloads = trace.Names()
	}
	if cfg.ScaleDivisor == 0 {
		cfg.ScaleDivisor = 8
	}
	if cfg.WarmupAccesses == 0 {
		cfg.WarmupAccesses = 250_000
	}
	if cfg.Window == 0 {
		cfg.Window = 150 * engine.Microsecond
	}
	r := &Runner{Cfg: cfg, runnerState: &runnerState{
		cache: make(map[runKey]*flight),
		warm:  warmShare{leases: make(map[runKey]*warmLease)},
	}}
	r.SetJobs(1)
	return r
}

// WithContext returns a request-scoped view of the runner. The view shares
// the cell cache, worker pool, resilience knobs, and checkpoint with the
// receiver, but ctx gates the cells the view starts and bounds how long the
// view's callers wait on in-flight cells: when ctx is done, waits return an
// ErrCanceled-coded error while the underlying simulations keep running for
// the benefit of other views. The view's Cfg is a copy, so per-request
// degradation (e.g. shrinking MetricsSamples under memory pressure) cannot
// leak into other views.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	return &Runner{Cfg: r.Cfg, runnerState: r.runnerState, reqCtx: ctx}
}

// callCtx resolves the context gating this view's cell starts and waits:
// the view's request context when set, else the SetContext context, else
// Background.
func (r *Runner) callCtx() context.Context {
	if r.reqCtx != nil {
		return r.reqCtx
	}
	r.mu.Lock()
	ctx := r.ctx
	r.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx
}

// SetJobs bounds how many simulations may execute concurrently. Values
// below 1 are clamped to 1. Resizing does not affect cells already running.
func (r *Runner) SetJobs(n int) {
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	r.sem = make(chan struct{}, n)
	r.mu.Unlock()
}

// SetContext installs the context that gates cell starts. Canceling it
// drains the pool gracefully: running cells complete (and checkpoint), cells
// not yet started fail fast carrying ctx's error, and partial results remain
// exportable.
func (r *Runner) SetContext(ctx context.Context) {
	r.mu.Lock()
	r.ctx = ctx
	r.mu.Unlock()
}

// SetCellTimeout arms the per-cell watchdog: an attempt that produces no
// result within d is abandoned (its worker slot is released and the cell
// fails with a timeout error). Zero disables the watchdog.
func (r *Runner) SetCellTimeout(d time.Duration) {
	r.mu.Lock()
	r.cellTimeout = d
	r.mu.Unlock()
}

// SetRetries allows up to n retries of a cell whose failure is transient
// (an error exposing `Transient() bool`), with linear backoff (attempt *
// backoff) between attempts. Deterministic failures are never retried.
func (r *Runner) SetRetries(n int, backoff time.Duration) {
	r.mu.Lock()
	r.retries = n
	r.retryBackoff = backoff
	r.mu.Unlock()
}

// SetCellHook installs a hook run at the top of every cell attempt; a
// non-nil error (or a panic) fails the attempt. Fault-injection tests use it
// to script panics, hangs, and transient errors into the pool.
func (r *Runner) SetCellHook(h func(cellKey string) error) {
	r.mu.Lock()
	r.cellHook = h
	r.mu.Unlock()
}

// CellSettlement describes one settled cell to the settlement hook: the
// cell's key, how long settling it took (wall clock — profiling data, never
// exported deterministically), whether the result was restored from the
// durable store rather than simulated, whether it was executed remotely by
// the fabric, and the final error (nil on success).
type CellSettlement struct {
	Key       string
	WallNS    int64
	FromStore bool
	Remote    bool
	Err       error
}

// SetCellTelemetry installs the settlement hook, called once per settled
// cell before waiters are released. The hook must be fast and must not
// re-enter the runner's cell path; it is the runner's one per-cell
// settlement stream, from which the serving layer feeds its breaker and its
// metrics.
func (r *Runner) SetCellTelemetry(fn func(CellSettlement)) {
	r.mu.Lock()
	r.cellTelemetry = fn
	r.mu.Unlock()
}

// SetEvictFailedCells selects the failure-memoization policy. When true,
// failed cells are removed from the cache as they settle, so a later
// request re-attempts them — the policy a long-lived service wants, with a
// circuit breaker bounding re-attempt storms. When false (the default), a
// failure is memoized like a success, so a batch sweep fails each broken
// cell exactly once.
func (r *Runner) SetEvictFailedCells(on bool) {
	r.mu.Lock()
	r.evictFailed = on
	r.mu.Unlock()
}

// EvictFailed removes settled failed cells whose key (runKey.String form)
// satisfies match from the cache, so later requests re-attempt them, and
// reports how many were evicted. In-flight and successful cells are never
// touched. A nil match evicts every settled failure.
func (r *Runner) EvictFailed(match func(cellKey string) bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for k, f := range r.cache {
		if !settled(f) || f.err == nil {
			continue
		}
		if match == nil || match(k.String()) {
			delete(r.cache, k)
			n++
		}
	}
	return n
}

// AttachCheckpoint makes the runner consult cp before simulating any cell
// and persist every completed cell into it.
func (r *Runner) AttachCheckpoint(cp *Checkpoint) {
	r.mu.Lock()
	r.checkpoint = cp
	r.mu.Unlock()
}

// normalize fills variant defaults so equivalent configurations share one
// cache key (and therefore one simulation).
func (r *Runner) normalize(v variant) variant {
	if v.cteCacheBytes == 0 {
		v.cteCacheBytes = r.ScaledCTECache(128 << 10)
	}
	if v.granularity == 0 {
		v.granularity = 4 << 10
	}
	if v.groupSize == 0 {
		v.groupSize = 3
	}
	if v.samplePeriod == 0 {
		v.samplePeriod = core.DefaultConfig().SamplePeriod
	}
	return v
}

// cellError wraps a cell failure for transport through experiment code that
// has no error return; RunExperiments recovers it.
type cellError struct{ err error }

func (c cellError) Error() string { return c.err.Error() }
func (c cellError) Unwrap() error { return c.err }

// get runs (or returns the memoized result of) one configuration. On
// failure — unknown workload or a simulator panic — it panics with a
// cellError carrying the offending cell's key; RunExperiments converts that
// into the experiment's error. Use Result for a plain error return.
func (r *Runner) get(wl string, d system.Design, s system.Setting, v variant) *system.Result {
	res, err := r.result(runKey{workload: wl, design: d, setting: s, variant: r.normalize(v)})
	if err != nil {
		panic(cellError{err})
	}
	return res
}

// Result is the error-returning cell accessor: it runs (or waits for, or
// returns the memoized result of) one workload × design × setting cell.
func (r *Runner) Result(wl string, d system.Design, s system.Setting) (*system.Result, error) {
	return r.result(runKey{workload: wl, design: d, setting: s, variant: r.normalize(defaultVariant())})
}

// result is the single-flight core: the first requester of a key simulates
// it (bounded by the jobs semaphore); duplicates block on the in-flight
// entry. The key must already be normalized.
//
// Waits are bounded by the view's context: when it is done, waiting returns
// an ErrCanceled-coded error while the in-flight simulation keeps running
// for other views. A cell whose *starter's* context canceled it before it
// ran is evicted from the cache (runCell), so a waiter whose own context is
// still live retries with a fresh flight instead of inheriting a failure it
// did not cause.
func (r *Runner) result(key runKey) (*system.Result, error) {
	res, _, err := r.resultObs(key)
	return res, err
}

// resultObs is result plus the cell's observability sidecar; the worker side
// of the fabric needs both to rebuild the canonical persisted payload.
func (r *Runner) resultObs(key runKey) (*system.Result, *metrics.Data, error) {
	ctx := r.callCtx()
	for {
		r.mu.Lock()
		if r.planning {
			f, ok := r.cache[key]
			if !ok {
				f = &flight{res: &system.Result{}}
				r.cache[key] = f
				r.planOrder = append(r.planOrder, key)
			}
			r.mu.Unlock()
			return f.res, nil, nil
		}
		if f, ok := r.cache[key]; ok {
			r.mu.Unlock()
			// A flight reports its own outcome whenever that is decided: when
			// it has settled, even if ctx is done too, and always when it runs
			// under this same ctx, whose cancellation its starter observes at
			// its next gate. So a canceled run's report does not depend on
			// which goroutine saw the cancellation first.
			waitCtx := ctx
			if f.ctx == ctx {
				waitCtx = context.Background()
			}
			if err := waitSettled(waitCtx, f.done); err != nil {
				return nil, nil, withCode(ErrCanceled,
					fmt.Errorf("harness: cell %s: abandoned wait: %w", key, err))
			}
			if errors.Is(f.err, ErrCanceled) && ctx.Err() == nil {
				continue // the starter gave up, we have not: retry fresh
			}
			return f.res, f.obs, f.err
		}
		f := &flight{done: make(chan struct{}), ctx: ctx}
		r.cache[key] = f
		r.mu.Unlock()
		r.runCell(ctx, key, f)
		return f.res, f.obs, f.err
	}
}

// runCell executes one cell: checkpoint restore, graceful-drain gate, worker
// slot, then watchdogged attempts with transient-failure retry. Panics are
// captured (with stack) so a failing cell reports its key instead of
// crashing the process. ctx is the starter's context: it gates the start,
// the retry backoff, and (with the watchdog) attempt abandonment.
//
//dylect:nondet-ok the watchdog goroutine and the wall-clock profile are scheduling, not simulation; the cell itself is reached from system.RunE and the warmup roots
func (r *Runner) runCell(ctx context.Context, key runKey, f *flight) {
	defer close(f.done)
	defer r.noteSettled()
	// Wall time and peak RSS are profiling data, kept strictly outside the
	// deterministic exports (ExportJSON never reads them).
	start := time.Now()
	fromStore := false
	viaRemote := false
	// Settlement bookkeeping: record the profiling row, drop the cell's warm
	// lease, evict canceled (and, in service mode, failed) cells so a later
	// request re-attempts them, and notify the settlement hook. One defer,
	// not several: the profile must be finalized before the hook runs, the
	// lease must go before the eviction lets a new flight of the key start,
	// and stacked defers would execute in the wrong (LIFO) order. Runs after
	// the recover below finalizes f.err, before waiters wake.
	defer func() {
		f.prof = cellProfile{
			WallNS:    time.Since(start).Nanoseconds(),
			PeakRSSKB: peakRSSKB(),
		}
		r.mu.Lock()
		r.warmSettle(key)
		evict := f.err != nil && (r.evictFailed || errors.Is(f.err, ErrCanceled))
		if evict && r.cache[key] == f {
			delete(r.cache, key)
		}
		tel := r.cellTelemetry
		r.mu.Unlock()
		if tel != nil {
			tel(CellSettlement{
				Key:       key.String(),
				WallNS:    f.prof.WallNS,
				FromStore: fromStore,
				Remote:    viaRemote,
				Err:       f.err,
			})
		}
	}()
	defer func() {
		if p := recover(); p != nil {
			f.err = withCode(ErrCellPanic,
				fmt.Errorf("harness: cell %s: panic: %v\n%s", key, p, debug.Stack()))
			f.res = nil
		}
	}()

	r.mu.Lock()
	sem := r.sem
	timeout := r.cellTimeout
	retries, backoff := r.retries, r.retryBackoff
	cp := r.checkpoint
	remote := r.remote
	r.mu.Unlock()

	if cp != nil {
		if res, obs, ok := cp.Load(key); ok {
			f.res = res
			f.obs = obs
			fromStore = true
			return
		}
	}

	// Graceful drain: once the context is canceled no new cell starts —
	// not even one already queued on the semaphore — but cells that made it
	// into a worker slot run to completion and checkpoint. The gate is
	// checked before and after the wait for a shared warmup image, which
	// holds no worker slot.
	drained := func() bool {
		select {
		case <-ctx.Done():
			f.err = withCode(ErrCanceled,
				fmt.Errorf("harness: cell %s: not started: %w", key, ctx.Err()))
			return true
		default:
			return false
		}
	}
	if drained() {
		return
	}
	lease, err := r.warmAcquire(ctx, key)
	if err != nil {
		f.err = err
		return
	}
	if drained() {
		return
	}
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		f.err = withCode(ErrCanceled,
			fmt.Errorf("harness: cell %s: not started: %w", key, ctx.Err()))
		return
	}
	// Released when runCell returns — including when the watchdog abandons
	// a hung attempt, so one stuck cell cannot shrink the pool.
	defer func() { <-sem }()

	// The base runner's context is a graceful-drain gate: in-flight cells
	// run to completion (and checkpoint) on cancellation. A request-scoped
	// view's context is a deadline: it abandons the running attempt too.
	attemptCtx := context.Background()
	if r.reqCtx != nil {
		attemptCtx = ctx
	}

	// Remote execution path: the fabric coordinator dispatches the cell
	// instead of simulating it. The executor owns retry/hedging/failover, so
	// its error is final; the payload it returns was already adopted into
	// the checkpoint by remoteCell, so the local Store below is skipped.
	if remote != nil {
		viaRemote = true
		res, obs, err := r.remoteCell(attemptCtx, key, remote, cp)
		if err != nil {
			f.err = err
			return
		}
		f.res = res
		f.obs = obs
		return
	}

	var res *system.Result
	var obs *metrics.Data
	for attempt := 1; ; attempt++ {
		var err error
		res, obs, err = r.attemptCell(attemptCtx, key, timeout, lease)
		if err == nil {
			break
		}
		if isTransient(err) && attempt <= retries && ctx.Err() == nil {
			if backoff > 0 {
				select {
				case <-time.After(time.Duration(attempt) * backoff):
				case <-ctx.Done():
				}
			}
			continue
		}
		if isTransient(err) {
			err = withCode(ErrTransient, err)
		}
		f.err = err
		return
	}

	if cp != nil {
		if err := cp.Store(key, res, obs); err != nil {
			f.err = err
			return
		}
	}
	f.res = res
	f.obs = obs
	r.mu.Lock()
	r.runs++
	r.mu.Unlock()
}

// attemptCell runs one simulation attempt in a child goroutine so the
// watchdog can abandon it: a hung simulator (or injected hang) cannot block
// the sweep. The abandoned goroutine's eventual result, if any, lands in a
// buffered channel and is discarded. The starter's context composes with
// the watchdog: whichever fires first abandons the attempt, so a request
// deadline bounds cell execution even without -cell-timeout.
func (r *Runner) attemptCell(ctx context.Context, key runKey, timeout time.Duration, lease *warmLease) (*system.Result, *metrics.Data, error) {
	r.mu.Lock()
	hook := r.cellHook
	r.mu.Unlock()

	type outcome struct {
		res *system.Result
		obs *metrics.Data
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: withCode(ErrCellPanic,
					fmt.Errorf("harness: cell %s: panic: %v\n%s", key, p, debug.Stack()))}
			}
		}()
		if hook != nil {
			if err := hook(key.String()); err != nil {
				ch <- outcome{err: fmt.Errorf("harness: cell %s: %w", key, err)}
				return
			}
		}
		res, obs, err := r.simulate(key, lease)
		if err != nil {
			ch <- outcome{err: fmt.Errorf("harness: cell %s: %w", key, err)}
			return
		}
		ch <- outcome{res: res, obs: obs}
	}()

	var watchdog <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		watchdog = t.C
	}
	select {
	case o := <-ch:
		return o.res, o.obs, o.err
	case <-watchdog:
		return nil, nil, withCode(ErrCellTimeout,
			fmt.Errorf("harness: cell %s: no result after %v; watchdog abandoned the worker", key, timeout))
	case <-ctx.Done():
		return nil, nil, withCode(ErrCanceled,
			fmt.Errorf("harness: cell %s: attempt abandoned: %w", key, ctx.Err()))
	}
}

// options builds the system.Options a cell simulates.
func (r *Runner) options(key runKey) (system.Options, error) {
	w, ok := trace.ByName(key.workload)
	if !ok {
		return system.Options{}, fmt.Errorf("unknown workload %q", key.workload)
	}
	var dcfg *core.Config
	if key.design == system.DesignDyLeCT {
		c := core.DefaultConfig()
		c.SamplePeriod = key.samplePeriod
		c.DirectToML0 = key.directToML0
		dcfg = &c
	}
	return system.Options{
		Workload:       w,
		Design:         key.design,
		Setting:        key.setting,
		HugePages:      key.hugePages,
		CTECacheBytes:  key.cteCacheBytes,
		Granularity:    key.granularity,
		GroupSize:      key.groupSize,
		PerfectCTE:     key.perfectCTE,
		EmbedPTB:       key.embedPTB,
		Ranks:          key.ranks,
		WarmupAccesses: r.Cfg.WarmupAccesses,
		Window:         r.Cfg.Window,
		ScaleDivisor:   r.Cfg.ScaleDivisor,
		FootprintFloor: r.Cfg.FootprintFloor,
		Seed:           r.Cfg.Seed,
		DyLeCT:         dcfg,
		Audit:          r.Cfg.Audit,
	}, nil
}

// simulate performs the actual system run for a cell, returning the
// recorded observability data when the config enables metrics. The cell's
// warm lease (nil for none) selects how it warms up: restoring its group's
// image, recording the image for the group, or live.
func (r *Runner) simulate(key runKey, lease *warmLease) (*system.Result, *metrics.Data, error) {
	opts, err := r.options(key)
	if err != nil {
		return nil, nil, err
	}
	var rec *metrics.Recorder
	if r.Cfg.MetricsSamples > 0 || r.Cfg.Trace {
		rec = metrics.New(metrics.Config{
			Samples:  r.Cfg.MetricsSamples,
			Trace:    r.Cfg.Trace,
			TraceCap: r.Cfg.TraceCap,
		})
	}
	opts.Obs = rec
	m, err := system.Build(opts)
	if err != nil {
		return nil, nil, err
	}
	switch img, record := r.warmTake(lease); {
	case img != nil:
		if err := m.Restore(img); err != nil {
			return nil, nil, err
		}
		r.warmRestored(lease)
	case record:
		r.warmPublish(lease, m.WarmupRecorded())
	default:
		m.Warmup()
	}
	res, err := m.Finish()
	if err != nil {
		return nil, nil, err
	}
	if rec == nil {
		return res, nil, nil
	}
	return res, rec.Data(), nil
}

// noteSettled records one settled cell and fires the progress callback.
func (r *Runner) noteSettled() {
	r.mu.Lock()
	r.done++
	done, total := r.done, r.planned
	if done > total {
		total = done
	}
	if cb := r.onProgress; cb != nil {
		cb(done, total)
	}
	r.mu.Unlock()
}

// ScaledCTECache scales a paper-sized CTE cache with the footprint scale so
// translation-reach : footprint ratios match the paper (a 128KB cache's
// 64MB unified reach is sized against 1-106GB footprints; against a 1/8
// scale footprint the equivalent cache is 16KB). Rounded down to whole
// 8-way sets of 64B lines, so any scale yields a valid cache, and floored
// at 4KB.
func (r *Runner) ScaledCTECache(paperBytes int) int {
	sz := paperBytes / int(r.Cfg.ScaleDivisor)
	sz -= sz % 512
	if sz < 4<<10 {
		sz = 4 << 10
	}
	return sz
}

// Baseline returns the no-compression bigger-memory result for a workload.
func (r *Runner) Baseline(wl string) *system.Result {
	return r.get(wl, system.DesignNoComp, system.SettingNone, defaultVariant())
}

// Design returns a design's result at a compression setting.
func (r *Runner) Design(wl string, d system.Design, s system.Setting) *system.Result {
	return r.get(wl, d, s, defaultVariant())
}

// Runs reports how many distinct simulations have completed.
func (r *Runner) Runs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs
}

// Experiment ties a name to its regeneration function.
type Experiment struct {
	Name  string
	Title string
	Run   func(*Runner) []string
}

// Experiments returns the registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: Contrast with prior work", Table1},
		{"table2", "Table 2: Benchmarks and DRAM sizes", Table2},
		{"table3", "Table 3: Simulated microarchitecture", Table3},
		{"fig3", "Figure 3: 2MB huge pages vs 4KB pages speedup", Fig3},
		{"motivation", "Section III-A: PTB embedding vs page size", Motivation},
		{"fig4", "Figure 4: TMCC performance vs no compression", Fig4},
		{"fig5", "Figure 5: TMCC CTE cache miss rate vs cache size", Fig5},
		{"fig6", "Figure 6: TMCC at coarse compression granularity", Fig6},
		{"naive", "Section IV-A3: naive dynamic-length design", NaiveAblation},
		{"fig17", "Figure 17: baseline bandwidth utilization", Fig17},
		{"fig18", "Figure 18: DyLeCT performance vs TMCC", Fig18},
		{"fig19", "Figure 19: CTE cache hit rates", Fig19},
		{"fig20", "Figure 20: DRAM breakdown by memory level", Fig20},
		{"fig21", "Figure 21: L3 miss latency increase", Fig21},
		{"fig22", "Figure 22: memory traffic per instruction", Fig22},
		{"fig23", "Figure 23: CTE and total traffic", Fig23},
		{"fig24", "Figure 24: DRAM energy per instruction", Fig24},
		{"fig25", "Figure 25: ML0 fraction vs DRAM page group size", Fig25},
		{"abl-gradual", "Ablation: gradual promotion vs direct-to-ML0", AblationGradual},
		{"abl-sampling", "Ablation: promotion sampling period", AblationSampling},
	}
}

// ByName finds an experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names returns all experiment names sorted as registered.
func Names() []string {
	es := Experiments()
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name
	}
	return out
}

// sortedWorkloads returns the runner's workload list (stable order).
func (r *Runner) workloads() []string {
	ws := append([]string(nil), r.Cfg.Workloads...)
	// Keep paper order (trace.Names order), not alphabetical.
	order := map[string]int{}
	for i, n := range trace.Names() {
		order[n] = i
	}
	sort.SliceStable(ws, func(i, j int) bool { return order[ws[i]] < order[ws[j]] })
	return ws
}
