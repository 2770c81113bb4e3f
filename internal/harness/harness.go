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
	"dylect/internal/faults"
	"dylect/internal/metrics"
	"dylect/internal/retry"
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

// CellSpec is the identity of one cell: the Runner's cache key, the fabric's
// wire form, the source of its store address (fileKey) and, embedded, the
// key columns of RawResult and PlannedCell. Every field participates, so two
// cells that differ in any knob are distinct and deterministically ordered
// (lessSpec); the field order and JSON tags are the export's. Specs the
// harness builds are normalized; one from outside the harness is checked
// and normalized before it names a cell (ExecuteCell).
type CellSpec struct {
	Workload      string `json:"workload"`
	Design        string `json:"design"`
	Setting       string `json:"setting"`
	HugePages     bool   `json:"hugePages"`
	CTECacheBytes int    `json:"cteCacheBytes"`
	Granularity   uint64 `json:"granularity"`
	GroupSize     uint64 `json:"groupSize"`
	PerfectCTE    bool   `json:"perfectCTE,omitempty"`
	// EmbedPTB enables TMCC's PTB-embedded CTE forwarding (Section III-A).
	EmbedPTB bool `json:"embedPTB,omitempty"`
	// DirectToML0 and SamplePeriod override DyLeCT's promotion policy for
	// the ablation studies; SamplePeriod 0 normalizes to the paper default.
	DirectToML0  bool   `json:"directToML0,omitempty"`
	SamplePeriod uint64 `json:"samplePeriod,omitempty"`
}

// cell is the default-variant spec of one workload × design × setting.
func cell(wl string, d system.Design, s system.Setting) CellSpec {
	return CellSpec{Workload: wl, Design: d.String(), Setting: s.String(), HugePages: true}
}

// CellKey renders the spec compactly for error messages and progress: the
// key the breaker, telemetry, and fault-injection hooks all speak. Beyond
// workload, design and setting it names only the 4K, perfect-CTE,
// PTB-embedding and direct-to-ML0 variants; fileKey names every field.
func (s CellSpec) CellKey() string {
	k := s.Workload + "/" + s.Design + "/" + s.Setting
	if !s.HugePages {
		k += "/4K"
	}
	if s.PerfectCTE {
		k += "/perfectCTE"
	}
	if s.EmbedPTB {
		k += "/embedPTB"
	}
	if s.DirectToML0 {
		k += "/directToML0"
	}
	return k
}

// check rejects a spec from outside the harness that cannot name a cell: it
// must name a workload and a known design and setting. system.Build
// range-checks the knobs.
func (s CellSpec) check() error {
	if _, err := parseDesign(s.Design); err != nil {
		return err
	}
	if _, err := parseSetting(s.Setting); err != nil {
		return err
	}
	if s.Workload == "" {
		return fmt.Errorf("harness: cell spec has no workload")
	}
	return nil
}

func parseDesign(s string) (system.Design, error) {
	for _, d := range []system.Design{system.DesignNoComp, system.DesignTMCC, system.DesignDyLeCT, system.DesignNaive} {
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("harness: unknown design %q", s)
}

func parseSetting(s string) (system.Setting, error) {
	for _, st := range []system.Setting{system.SettingLow, system.SettingHigh, system.SettingNone} {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("harness: unknown setting %q", s)
}

// flight is one single-flight cache entry: the first requester starts it,
// and every requester blocks on done. Exactly one of res/err is set once
// done is closed. obs carries the cell's recorded observability data (nil
// when metrics are off); report holds its settlement record's Source,
// WallNS and PeakRSSKB (Key and Err are filled only in the copy the
// settlement hook receives: the cache key and err already hold them).
type flight struct {
	done chan struct{}
	// ctx is the starter's context: it gates the flight's start and retries.
	ctx    context.Context
	res    *system.Result
	obs    *metrics.Data
	report CellSettlement
	err    error
}

// Runner memoizes simulation results behind a single-flight cache and a
// bounded worker pool. The zero value is not usable; construct with
// NewRunner. All methods are safe for concurrent use.
//
// A Runner is a lightweight view over shared state: WithContext returns a
// second view onto the same cache and worker pool whose cells are gated by
// a request-scoped context. The serving layer (internal/serve) gives every
// HTTP request its own view so client deadlines bound its cell starts and
// waits, never a running attempt, while results stay memoized across all
// clients.
type Runner struct {
	Cfg Config

	*runnerState

	// reqCtx, when non-nil, is this view's request-scoped context
	// (WithContext): it gates the cells this view starts and bounds how
	// long this view's callers wait on cells. Nil on the base runner
	// (callCtx, waitCtx).
	reqCtx context.Context
}

// runnerState is the cross-view shared core of a Runner: the single-flight
// cache, the worker pool, and every knob that must be common to all views.
type runnerState struct {
	mu    sync.Mutex
	cache map[CellSpec]*flight
	// sem bounds the number of simulations executing at once (SetJobs).
	sem chan struct{}
	// runs counts completed simulations.
	runs int

	// planning short-circuits get: record the key, return a zero Result.
	// Used by planCells to enumerate an experiment list's cell set.
	planning  bool
	planOrder []CellSpec

	// Resilience knobs (SetContext, SetCellTimeout, SetRetries,
	// SetCellHook, AttachCheckpoint). ctx gates *starting* cells — a
	// canceled context drains the pool gracefully: running cells finish
	// (and checkpoint), queued ones fail fast with ctx's error.
	ctx          context.Context
	cellTimeout  time.Duration
	retries      int
	retryBackoff time.Duration
	// cellHook, when set, runs at the top of every cell attempt (inside
	// the watchdogged goroutine); a non-nil error fails the attempt. It
	// exists for fault injection (internal/faults.CellInjector).
	cellHook func(cellKey string) error
	// cellTelemetry, when set, is called once per settled cell with its
	// settlement record, after the outcome is recorded but before waiters
	// are released. The serving layer feeds its circuit breaker and /metrics
	// instruments from it, and dylectsim its progress line. It must not call
	// back into the Runner's cell path (Result/get).
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

	// images counts the warm-key groups holding an image slot (runGroup),
	// at most one per worker slot.
	images int
	// onImage, when set, sees each group's image as it arrives; tests use
	// it to follow the images' lifetime.
	onImage func(*system.WarmImage)

	// domain is the admissible cell set (Admits), built on first use.
	domain struct {
		once  sync.Once
		cells map[CellSpec]bool
	}
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
	r := &Runner{Cfg: cfg, runnerState: &runnerState{cache: make(map[CellSpec]*flight), ctx: context.Background()}}
	r.SetJobs(1)
	return r
}

// WithContext returns a request-scoped view of the runner. The view shares
// the cell cache, worker pool, resilience knobs, and checkpoint with the
// receiver, but ctx gates the cells the view starts and bounds how long the
// view's callers wait on cells: when ctx is done, waits return an
// ErrCanceled-coded error while the simulations already running finish for
// the benefit of other views. The view's Cfg is a copy, so per-request
// degradation (e.g. shrinking MetricsSamples under memory pressure) cannot
// leak into other views.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	return &Runner{Cfg: r.Cfg, runnerState: r.runnerState, reqCtx: ctx}
}

// callCtx resolves the context gating the cells this view starts: the
// view's request context when set, else the SetContext context.
func (r *Runner) callCtx() context.Context {
	if r.reqCtx != nil {
		return r.reqCtx
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ctx
}

// waitCtx bounds this view's waits on cells: its request context, or
// Background on the base runner, whose callers wait until cells settle.
func (r *Runner) waitCtx() context.Context {
	if r.reqCtx != nil {
		return r.reqCtx
	}
	return context.Background()
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
// fails with a timeout error). It alone abandons a running attempt, whose
// goroutine runs on outside the jobs bound. Zero disables the watchdog.
func (r *Runner) SetCellTimeout(d time.Duration) {
	r.mu.Lock()
	r.cellTimeout = d
	r.mu.Unlock()
}

// SetRetries allows up to n retries of a cell whose failure is transient
// (an error exposing `Transient() bool`). The wait before retry k is
// backoff doubled once per earlier retry, up to 10s (retry.DefaultCap) or
// backoff itself when that is longer. A retry whose wait the starter's
// context cuts short is never started; the cell fails ErrCanceled, its
// message naming the transient failure. Deterministic failures are never
// retried.
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

// CellSettlement is the record of one settled cell: the Runner's one
// per-cell report. The settlement hook receives it, and ExportProfileJSON
// reads its profiling fields back from the cache.
type CellSettlement struct {
	// Key is the cell key in CellSpec.CellKey form.
	Key string
	// Source says where the result came from: SourceStore, SourceRemote,
	// or a local simulation whose warmup was SourceRecord, SourceRestore or
	// SourceLive. It is empty when the cell failed before reaching any of
	// them, or in an attempt that panicked or was abandoned.
	Source string
	// WallNS and PeakRSSKB are profiling data, never exported
	// deterministically: how long settling took on the wall clock, and the
	// process's peak RSS when it settled (see ProfileRow).
	WallNS    int64
	PeakRSSKB uint64
	// Err is the final error, nil on success.
	Err error
}

// The values of CellSettlement.Source.
const (
	SourceStore   = "store"   // restored from the durable store
	SourceRemote  = "remote"  // executed by the fabric (SetRemoteExecutor)
	SourceRecord  = "record"  // simulated, recording its group's warmup image
	SourceRestore = "restore" // simulated from its group's warmup image
	SourceLive    = "live"    // simulated with a warmup of its own
)

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

// AttachCheckpoint makes the runner consult cp before simulating any cell
// and persist every completed cell into it.
func (r *Runner) AttachCheckpoint(cp *Checkpoint) {
	r.mu.Lock()
	r.checkpoint = cp
	r.mu.Unlock()
}

// normalize fills a spec's default knobs so equivalent configurations share
// one cache key (and therefore one simulation).
func (r *Runner) normalize(c CellSpec) CellSpec {
	if c.CTECacheBytes == 0 {
		c.CTECacheBytes = r.ScaledCTECache(128 << 10)
	}
	if c.Granularity == 0 {
		c.Granularity = 4 << 10
	}
	if c.GroupSize == 0 {
		c.GroupSize = 3
	}
	if c.SamplePeriod == 0 {
		c.SamplePeriod = core.DefaultConfig().SamplePeriod
	}
	return c
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
func (r *Runner) get(c CellSpec) *system.Result {
	res, err := r.result(r.normalize(c))
	if err != nil {
		panic(cellError{err})
	}
	return res
}

// Result is the error-returning cell accessor: it runs (or waits for, or
// returns the memoized result of) one workload × design × setting cell.
func (r *Runner) Result(wl string, d system.Design, s system.Setting) (*system.Result, error) {
	return r.result(r.normalize(cell(wl, d, s)))
}

// result is the single-flight core: the first requester of a key starts it
// (bounded by the jobs semaphore); every requester, the first included,
// waits on the in-flight entry. The key must already be normalized.
//
// Waits are bounded by waitCtx: when a view's context is done, waiting
// returns an ErrCanceled-coded error while a running simulation finishes
// for other views. A cell whose *starter's* context canceled it before it
// ran is evicted from the cache (runCell), so a waiter whose own context is
// still live retries with a fresh flight instead of inheriting a failure it
// did not cause.
func (r *Runner) result(key CellSpec) (*system.Result, error) {
	res, _, err := r.resultObs(key)
	return res, err
}

// resultObs is result plus the cell's observability sidecar; the worker side
// of the fabric needs both to rebuild the canonical persisted payload.
func (r *Runner) resultObs(key CellSpec) (*system.Result, *metrics.Data, error) {
	ctx := r.callCtx()
	for {
		r.mu.Lock()
		f, ok := r.cache[key]
		switch {
		case r.planning:
			if !ok {
				f = &flight{res: &system.Result{}}
				r.cache[key] = f
				r.planOrder = append(r.planOrder, key)
			}
			r.mu.Unlock()
			return f.res, nil, nil
		case !ok:
			f = &flight{done: make(chan struct{}), ctx: ctx}
			r.cache[key] = f
			r.startCell(key, f)
		}
		r.mu.Unlock()
		if err := waitSettled(r.waitCtx(), f.done); err != nil {
			return nil, nil, withCode(ErrCanceled,
				fmt.Errorf("harness: cell %s: abandoned wait: %w", key.CellKey(), err))
		}
		// Another starter gave up, we have not: retry fresh. Our own flight
		// keeps its outcome: its retry backoff gives up before a deadline it
		// would outlive, while ctx is still live.
		if errors.Is(f.err, ErrCanceled) && ctx.Err() == nil && f.ctx != ctx {
			continue
		}
		return f.res, f.obs, f.err
	}
}

// startCell runs a cell on its own goroutine, so its starter waits on the
// flight like any other caller.
//
//dylect:nondet-ok the flight's goroutine is scheduling, not simulation: it runs runCell, the cell executor, behind the same barrier
func (r *Runner) startCell(key CellSpec, f *flight) { go r.runCell(key, f, warmup{}) }

// waitSettled waits for done, or for ctx; when both are ready, done wins.
func waitSettled(ctx context.Context, done <-chan struct{}) error {
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		select {
		case <-done:
			return nil
		default:
			return ctx.Err()
		}
	}
}

// runCell executes one cell: checkpoint restore, graceful-drain gate, worker
// slot, then watchdogged attempts with transient-failure retry, each warming
// up as w says. Panics are captured (with stack) so a failing cell reports
// its key instead of crashing the process. The starter's context (f.ctx)
// gates the start and the retry backoff only: an attempt, once started,
// runs until it returns or the watchdog abandons it.
//
//dylect:nondet-ok the watchdog goroutine, the retry backoff and the wall-clock settlement record are scheduling, not simulation; the cell itself is reached from system.RunE and the warmup roots
func (r *Runner) runCell(key CellSpec, f *flight, w warmup) {
	defer close(f.done)
	// Wall time and peak RSS are profiling data, kept strictly outside the
	// deterministic exports (ExportJSON never reads them).
	start := time.Now()
	// Settlement bookkeeping: complete the cell's record, evict canceled
	// (and, in service mode, failed) cells so a later request re-attempts
	// them, and notify the settlement hook. One defer, not several: the
	// record must be complete before the hook runs, and stacked defers would
	// execute in the wrong (LIFO) order. Runs after the recover below
	// finalizes f.err, before waiters wake.
	defer func() {
		f.report.WallNS = time.Since(start).Nanoseconds()
		f.report.PeakRSSKB = peakRSSKB()
		r.mu.Lock()
		evict := f.err != nil && (r.evictFailed || errors.Is(f.err, ErrCanceled))
		if evict && r.cache[key] == f {
			delete(r.cache, key)
		}
		tel := r.cellTelemetry
		r.mu.Unlock()
		if tel != nil {
			rep := f.report
			rep.Key, rep.Err = key.CellKey(), f.err
			tel(rep)
		}
	}()
	defer func() {
		if p := recover(); p != nil {
			f.err = withCode(ErrCellPanic,
				fmt.Errorf("harness: cell %s: panic: %v\n%s", key.CellKey(), p, debug.Stack()))
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
			f.res, f.obs, f.report.Source = res, obs, SourceStore
			return
		}
	}

	// Graceful drain: once the context is canceled no new cell starts —
	// not even one already queued on the semaphore — but cells that made it
	// into a worker slot run to completion and checkpoint.
	notStarted := func() {
		f.err = withCode(ErrCanceled,
			fmt.Errorf("harness: cell %s: not started: %w", key.CellKey(), f.ctx.Err()))
	}
	if f.ctx.Err() != nil {
		notStarted()
		return
	}
	select {
	case sem <- struct{}{}:
	case <-f.ctx.Done():
		notStarted()
		return
	}
	// Released when runCell returns — including when the watchdog abandons
	// a hung attempt, so one stuck cell cannot shrink the pool.
	defer func() { <-sem }()

	// Remote execution path: the fabric coordinator dispatches the cell
	// instead of simulating it. The executor owns retry/hedging/failover, so
	// its error is final; the payload it returns was already adopted into
	// the checkpoint by remoteCell, so the local Store below is skipped.
	if remote != nil {
		f.report.Source = SourceRemote
		f.res, f.obs, f.err = r.remoteCell(key, remote, cp)
		return
	}

	var o outcome
	for attempt := 1; ; attempt++ {
		o = r.attemptCell(key, timeout, w)
		f.report.Source = o.source
		if o.err == nil {
			break
		}
		if !faults.IsTransient(o.err) {
			f.err = o.err
			return
		}
		if attempt > retries {
			f.err = withCode(ErrTransient, o.err)
			return
		}
		// A wait the context cuts short starts no further attempt: past a
		// view's deadline nobody waits for it, and a drain starts nothing.
		if err := retry.Sleep(f.ctx, retryWait(backoff, attempt)); err != nil {
			f.err = withCode(ErrCanceled,
				fmt.Errorf("harness: cell %s: retry not started: %w (after %v)", key.CellKey(), err, o.err))
			return
		}
	}

	if cp != nil {
		if err := cp.Store(key, o.res, o.obs); err != nil {
			f.err = err
			return
		}
	}
	f.res = o.res
	f.obs = o.obs
	r.mu.Lock()
	r.runs++
	r.mu.Unlock()
}

// retryWait is the wait before transient retry attempt (1 or more): backoff
// doubled once per earlier retry, capped at retry.DefaultCap or at backoff
// itself when that is longer, so the first wait is always backoff.
func retryWait(backoff time.Duration, attempt int) time.Duration {
	return retry.Ceiling(backoff, max(backoff, retry.DefaultCap), attempt)
}

// outcome is one cell attempt's result. source is how the attempt warmed up
// (SourceRecord, SourceRestore or SourceLive), empty when it failed before
// its warmup, panicked or the watchdog abandoned it.
type outcome struct {
	res    *system.Result
	obs    *metrics.Data
	source string
	err    error
}

// attemptCell runs one simulation attempt in a child goroutine so the
// watchdog can abandon it: a hung simulator (or injected hang) cannot block
// the sweep. No caller's context reaches an attempt: the watchdog alone
// abandons one, whose goroutine runs on outside the worker slot runCell
// gives back; its eventual result, if any, lands in a buffered channel.
func (r *Runner) attemptCell(key CellSpec, timeout time.Duration, w warmup) outcome {
	r.mu.Lock()
	hook := r.cellHook
	r.mu.Unlock()

	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: withCode(ErrCellPanic,
					fmt.Errorf("harness: cell %s: panic: %v\n%s", key.CellKey(), p, debug.Stack()))}
			}
		}()
		if hook != nil {
			if err := hook(key.CellKey()); err != nil {
				ch <- outcome{err: fmt.Errorf("harness: cell %s: %w", key.CellKey(), err)}
				return
			}
		}
		o := r.simulate(key, w)
		if o.err != nil {
			o.err = fmt.Errorf("harness: cell %s: %w", key.CellKey(), o.err)
		}
		ch <- o
	}()

	var watchdog <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		watchdog = t.C
	}
	select {
	case o := <-ch:
		return o
	case <-watchdog:
		return outcome{err: withCode(ErrCellTimeout,
			fmt.Errorf("harness: cell %s: no result after %v; watchdog abandoned the worker", key.CellKey(), timeout))}
	}
}

// options builds the system.Options a cell simulates.
func (r *Runner) options(key CellSpec) (system.Options, error) {
	w, ok := trace.ByName(key.Workload)
	if !ok {
		return system.Options{}, fmt.Errorf("unknown workload %q", key.Workload)
	}
	d, err := parseDesign(key.Design)
	if err != nil {
		return system.Options{}, err
	}
	s, err := parseSetting(key.Setting)
	if err != nil {
		return system.Options{}, err
	}
	var dcfg *core.Config
	if d == system.DesignDyLeCT {
		c := core.DefaultConfig()
		c.SamplePeriod = key.SamplePeriod
		c.DirectToML0 = key.DirectToML0
		dcfg = &c
	}
	return system.Options{
		Workload:       w,
		Design:         d,
		Setting:        s,
		HugePages:      key.HugePages,
		CTECacheBytes:  key.CTECacheBytes,
		Granularity:    key.Granularity,
		GroupSize:      key.GroupSize,
		PerfectCTE:     key.PerfectCTE,
		EmbedPTB:       key.EmbedPTB,
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
// recorded observability data when the config enables metrics. w selects how
// it warms up, which the outcome's source reports: restoring its group's
// image, recording the image and sending it to the group before its own
// window, or live.
func (r *Runner) simulate(key CellSpec, w warmup) outcome {
	opts, err := r.options(key)
	if err != nil {
		return outcome{err: err}
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
		return outcome{err: err}
	}
	var o outcome
	switch {
	case w.img != nil:
		o.source = SourceRestore
		if err := m.Restore(w.img); err != nil {
			o.err = err
			return o
		}
	case w.rec != nil:
		o.source = SourceRecord
		select {
		case w.rec <- m.WarmupRecorded():
		default: // an earlier attempt's image was sent first
		}
	default:
		o.source = SourceLive
		m.Warmup()
	}
	if o.res, o.err = m.Finish(); o.err == nil && rec != nil {
		o.obs = rec.Data()
	}
	return o
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
	return r.get(cell(wl, system.DesignNoComp, system.SettingNone))
}

// Design returns a design's result at a compression setting.
func (r *Runner) Design(wl string, d system.Design, s system.Setting) *system.Result {
	return r.get(cell(wl, d, s))
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

// workloads returns the runner's workload list in paper order.
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
