package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"dylect/internal/cellstore"
	"dylect/internal/harness"
	"dylect/internal/system"
	"dylect/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// Config scopes the simulations, exactly as the CLI's flags do.
	Config harness.Config
	// Jobs bounds concurrent simulations; <=0 means GOMAXPROCS.
	Jobs int
	// CellTimeout arms the per-cell watchdog (0 = off). It composes with
	// request deadlines: the watchdog bounds a single wedged cell, the
	// deadline bounds the whole request.
	CellTimeout time.Duration
	// Retries/RetryBackoff bound per-cell transient retries.
	Retries      int
	RetryBackoff time.Duration

	// MaxCost / MaxQueue / PerClient tune admission control (see
	// NewAdmission for defaults).
	MaxCost, MaxQueue, PerClient int
	// Breaker tunes the per-(workload, design) circuit breaker.
	Breaker BreakerConfig
	// Memory tunes memory-pressure degradation.
	Memory MemoryConfig

	// DefaultTimeout applies when a request names none; MaxTimeout clamps
	// what a request may ask for. Defaults: 2m / 10m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// Now is the clock used for admission and breaker bookkeeping;
	// nil uses wall time. Tests inject a fake to drive breaker cooldowns.
	Now func() time.Time

	// Checkpoint, when set, attaches a durable cell store to the shared
	// runner: completed cells persist across restarts, verified store
	// records short-circuit simulation on repeat traffic, and the store's
	// integrity/hit-rate counters surface on /healthz and /v1/stats. The
	// caller opens it (harness.OpenCheckpointStore) and retains ownership.
	Checkpoint *harness.Checkpoint

	// Telemetry, when set, turns on the operational metric surface: the
	// GET /metrics exposition endpoint, per-cell and per-request
	// instruments, and breaker transition counters. Pass the same
	// Telemetry's StoreObserver into harness.StoreOptions to include store
	// traffic. Telemetry is strictly observation — deterministic exports
	// are byte-identical with it on or off, which the byte-identity tests
	// enforce.
	Telemetry *Telemetry
	// Logger receives one structured completion record per /v1/run request
	// (request ID, client, outcome code, span durations). Nil discards.
	Logger *slog.Logger
}

// Server fronts one shared memoizing harness.Runner with the resilient
// HTTP API. Construct with New, install Handler on a listener, call Start,
// and Drain before closing the listener.
type Server struct {
	opts   Options
	runner *harness.Runner
	adm    *Admission
	brk    *Breaker
	mem    *MemoryMonitor
	mux    *http.ServeMux
	tel    *Telemetry
	log    *slog.Logger
	// clock mirrors Options.Now (wall time by default) and stamps request
	// spans, so fake-clock tests produce deterministic traces.
	clock func() time.Time

	mu       sync.Mutex
	ready    bool
	healthy  bool
	draining bool
	startAt  time.Time

	inflight InFlight
	// force is canceled when a drain deadline expires: every in-flight
	// request's context hangs off it, so a stuck drain degrades to
	// abandoning waits (partial results) rather than hanging shutdown.
	force     context.Context
	forceStop context.CancelFunc
}

// New builds a Server over a fresh runner for opts.Config. The runner runs
// in service mode: failed cells are evicted as they settle (the breaker —
// not the cache — bounds re-attempt storms), and every settlement feeds the
// breaker.
func New(opts Options) *Server {
	if opts.Jobs <= 0 {
		opts.Jobs = runtime.GOMAXPROCS(0)
	}
	if opts.DefaultTimeout <= 0 {
		opts.DefaultTimeout = 2 * time.Minute
	}
	if opts.MaxTimeout <= 0 {
		opts.MaxTimeout = 10 * time.Minute
	}
	s := &Server{opts: opts, runner: harness.NewRunner(opts.Config)}
	s.clock = opts.Now
	if s.clock == nil {
		s.clock = time.Now
	}
	s.log = opts.Logger
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.runner.SetJobs(opts.Jobs)
	if opts.CellTimeout > 0 {
		s.runner.SetCellTimeout(opts.CellTimeout)
	}
	if opts.Retries > 0 {
		s.runner.SetRetries(opts.Retries, opts.RetryBackoff)
	}
	s.runner.SetEvictFailedCells(true)
	if opts.Checkpoint != nil {
		s.runner.AttachCheckpoint(opts.Checkpoint)
	}
	s.adm = NewAdmission(opts.MaxCost, opts.MaxQueue, opts.PerClient, opts.Now)
	s.brk = NewBreaker(opts.Breaker, opts.Now)
	s.runner.SetCellTelemetry(s.observeCell)
	s.mem = NewMemoryMonitor(opts.Memory, func(int32) {
		// On an upward pressure transition, shed the largest queued
		// requests first; freeing half the running budget's worth of
		// queued cost is a meaningful dent without emptying the queue.
		s.adm.ShedLargest((s.adm.maxCost + 1) / 2)
	})
	s.force, s.forceStop = context.WithCancel(context.Background())

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	if opts.Telemetry != nil {
		s.tel = opts.Telemetry
		s.brk.SetTransitionHook(s.tel.observeBreaker)
		s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	return s
}

// observeCell is the runner's settlement hook: every settled cell feeds the
// breaker and, when telemetry is on, the cell instruments.
func (s *Server) observeCell(c harness.CellSettlement) {
	s.brk.Report(c.Key, c.Err)
	if s.tel != nil {
		s.tel.observeCell(c)
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Runner exposes the shared runner for tests that assert byte-identity
// against a direct export.
func (s *Server) Runner() *harness.Runner { return s.runner }

// Breaker exposes the breaker for tests and stats.
func (s *Server) Breaker() *Breaker { return s.brk }

// Start marks the server live and launches the memory monitor; ctx bounds
// the monitor goroutine (it should outlive every request, so pass the
// process context, not a request's).
func (s *Server) Start(ctx context.Context) {
	s.mem.Start(ctx)
	s.mu.Lock()
	s.ready = true
	s.healthy = true
	s.startAt = s.clock()
	s.mu.Unlock()
}

// Drain executes the shutdown sequence: readiness flips first (load
// balancers stop routing, new requests get CodeDraining), in-flight
// requests run to completion — bounded by ctx, after which their waits are
// force-abandoned so they return partial results — and only then does
// health flip, telling the process it may close the listener. Returns true
// when the drain was clean (no request had to be abandoned).
func (s *Server) Drain(ctx context.Context) bool {
	s.mu.Lock()
	s.ready = false
	s.draining = true
	s.mu.Unlock()

	clean := s.inflight.Drain(ctx)
	if !clean {
		s.forceStop() // abandon in-flight waits; handlers return partials
	}
	s.inflight.Wait()
	s.mem.Stop()
	s.mu.Lock()
	s.healthy = false
	s.mu.Unlock()
	return clean
}

func (s *Server) isReady() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ready
}

// Ready reports whether the server is accepting work (Start called, Drain
// not yet begun). Sidecar handlers mounted next to this server — the fabric
// worker's cell endpoint — gate on it so a draining process stops taking
// cells at the same instant it stops taking requests.
func (s *Server) Ready() bool { return s.isReady() }

// handleHealthz reports liveness as JSON with uptime and the simulator
// schema version, so an operator (or a deploy probe) can spot a stale
// binary at a glance. Health responses must never be cached — a load
// balancer acting on a stale "ok" defeats the drain sequence.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ok := s.healthy
	started := s.startAt
	s.mu.Unlock()
	w.Header().Set("Cache-Control", "no-store")
	resp := HealthzResponse{Status: "ok", SchemaVersion: system.SchemaVersion}
	if !started.IsZero() {
		resp.UptimeSec = s.clock().Sub(started).Seconds()
	}
	if s.opts.Checkpoint != nil {
		resp.Store = storeStatsOf(s.opts.Checkpoint.StoreStats())
	}
	if !ok {
		resp.Status = "draining complete"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.isReady() {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var out []ExperimentInfo
	for _, e := range harness.Experiments() {
		out = append(out, ExperimentInfo{Name: e.Name, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	running, queued, queuedCost, shed := s.adm.Stats()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	resp := StatsResponse{
		Running:     running,
		Queued:      queued,
		QueuedCost:  queuedCost,
		Shed:        shed,
		Simulations: s.runner.Runs(),
		Memory:      memLevelName(s.mem.Level()),
		Breakers:    s.brk.Tripped(),
		Draining:    draining,
	}
	if s.opts.Checkpoint != nil {
		resp.Store = storeStatsOf(s.opts.Checkpoint.StoreStats())
	}
	// A stats snapshot is stale the instant it is written; forbid caching.
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, resp)
}

// storeStatsOf maps the cellstore's counters onto the wire schema.
func storeStatsOf(st cellstore.Stats) *StoreStats {
	ss := &StoreStats{
		Records:         st.Records,
		Bytes:           st.Bytes,
		Hits:            st.Hits,
		Misses:          st.Misses,
		Puts:            st.Puts,
		Evictions:       st.Evictions,
		Quarantined:     st.Quarantined,
		Reasons:         st.Reasons,
		OpenVerified:    st.OpenVerified,
		OpenQuarantined: st.OpenQuarantined,
	}
	if lookups := st.Hits + st.Misses; lookups > 0 {
		ss.HitRate = float64(st.Hits) / float64(lookups)
	}
	return ss
}

// runMeta collects the request facts worth one structured log line.
type runMeta struct {
	client   string
	cost     int
	partial  bool
	degraded bool
}

// handleRun wraps the request path with its observability envelope: a
// request ID (honoring an inbound X-Request-ID) echoed on the response, a
// span trace rendered as Server-Timing, the outcome counters/latency
// histogram, and one structured completion log record. The envelope is
// strictly observational — runRequest decides everything.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	reqID := telemetry.OrNewID(r.Header.Get(telemetry.HeaderRequestID))
	w.Header().Set(telemetry.HeaderRequestID, reqID)
	tr := telemetry.NewTrace(reqID)
	start := s.clock()
	var meta runMeta
	status, code := s.runRequest(w, r, tr, &meta)
	elapsed := s.clock().Sub(start)
	if s.tel != nil {
		s.tel.requests.Inc(code)
		s.tel.reqLatency.Observe(elapsed.Seconds())
	}
	lvl := slog.LevelInfo
	if status >= 500 {
		lvl = slog.LevelWarn
	}
	args := []any{
		"id", reqID, "status", status, "code", code,
		"client", meta.client, "cost", meta.cost,
		"partial", meta.partial, "degraded", meta.degraded,
		"ms", float64(elapsed) / float64(time.Millisecond),
	}
	s.log.Log(r.Context(), lvl, "run", append(args, tr.SlogArgs()...)...)
}

// runRequest is the request path: validate -> price -> deadline -> admit ->
// breaker -> execute -> export. Every rejection carries a stable code and,
// where retrying makes sense, a Retry-After estimate; every exit — success
// or failure — reports its HTTP status and outcome code and carries the
// span trace in a Server-Timing header.
func (s *Server) runRequest(w http.ResponseWriter, r *http.Request, tr *telemetry.Trace, meta *runMeta) (int, string) {
	began := s.clock()
	// Every exit carries at least the total span, so even a pre-admission
	// rejection (draining, critical memory) has a non-empty Server-Timing.
	fail := func(status int, code, msg string, retryAfter time.Duration) (int, string) {
		tr.Observe("total", s.clock().Sub(began))
		w.Header().Set(telemetry.HeaderServerTiming, tr.ServerTiming())
		WriteError(w, status, code, msg, retryAfter)
		return status, code
	}
	if !s.isReady() {
		return fail(http.StatusServiceUnavailable, CodeDraining, "server is draining", 0)
	}
	s.inflight.Add()
	defer s.inflight.Done()

	var req RunRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(&req); err != nil {
		return fail(http.StatusBadRequest, CodeBadRequest, "decode request: "+err.Error(), 0)
	}
	meta.client = clientOf(req, r)
	if len(req.Experiments) == 0 {
		return fail(http.StatusBadRequest, CodeBadRequest, "no experiments requested", 0)
	}
	var exps []harness.Experiment
	for _, name := range req.Experiments {
		e, ok := harness.ByName(name)
		if !ok {
			return fail(http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("unknown experiment %q", name), 0)
		}
		exps = append(exps, e)
	}
	if s.mem.Level() >= MemCritical {
		return fail(http.StatusServiceUnavailable, CodeOverloaded,
			"refusing work under critical memory pressure", s.mem.cfg.Interval*4)
	}

	// The request deadline covers queueing and execution; it propagates
	// into cell starts and waits through the runner view. A drain
	// past its grace period force-cancels it via s.force.
	// The clamp compares milliseconds: a large timeoutMS overflows the
	// Duration product.
	timeout := s.opts.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = s.opts.MaxTimeout
		if req.TimeoutMS <= s.opts.MaxTimeout.Milliseconds() {
			timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	stopForce := context.AfterFunc(s.force, cancel)
	defer stopForce()

	// Price the request from its dry-run plan: fresh simulations cost,
	// cached cells are free. The queue-wait span (and histogram sample) is
	// recorded for every request that reaches admission, including ones
	// admitted instantly — a zero wait is information, not noise.
	cost := s.runner.FreshCost(exps)
	meta.cost = cost
	queuedAt := s.clock()
	release, aerr := s.adm.Acquire(ctx, meta.client, cost)
	wait := s.clock().Sub(queuedAt)
	tr.Observe("queue", wait)
	if s.tel != nil {
		s.tel.queueWait.Observe(wait.Seconds())
	}
	if aerr != nil {
		return fail(statusOf(aerr.Code), aerr.Code, aerr.Msg, aerr.RetryAfter)
	}
	defer release()

	classes := classesOf(s.runner.Cfg, exps)
	if ok, retry := s.brk.AllowAll(classes); !ok {
		return fail(http.StatusServiceUnavailable, CodeBreakerOpen,
			"circuit open for a (workload, design) class this request needs", retry)
	}
	// A probe committed above normally settles through the settlement hook;
	// if this request's cells were all cached (nothing fresh to observe),
	// free the probe slot on exit so the class is not wedged probing.
	defer s.brk.ReleaseProbes(classes)

	view := s.runner.WithContext(ctx)
	degraded := s.mem.Level() >= MemDegraded
	meta.degraded = degraded
	if degraded {
		// Shed observability before work: interval sampling is the most
		// memory-proportional optional feature and provably does not
		// change exported results.
		view.Cfg.MetricsSamples = 0
	}
	runAt := s.clock()
	outs := harness.RunShared(view, exps)
	tr.Observe("run", s.clock().Sub(runAt))

	resp := RunResponse{Degraded: degraded}
	for _, out := range outs {
		er := ExperimentResult{Name: out.Experiment.Name, Title: out.Experiment.Title}
		if out.Err != nil {
			resp.Partial = true
			er.Error = out.Err.Error()
			er.Code = harness.CellErrorCodeName(out.Err)
		} else {
			er.Blocks = out.Blocks
		}
		resp.Experiments = append(resp.Experiments, er)
	}
	meta.partial = resp.Partial
	exportAt := s.clock()
	results, err := view.ExportJSONFor(exps)
	tr.Observe("export", s.clock().Sub(exportAt))
	if err != nil {
		return fail(http.StatusInternalServerError, "export_failed", err.Error(), 0)
	}
	resp.Results = results
	tr.Observe("total", s.clock().Sub(began))
	w.Header().Set(telemetry.HeaderServerTiming, tr.ServerTiming())
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, "ok"
}

// classesOf returns the deduplicated breaker classes of the experiments'
// planned cells, sorted.
func classesOf(cfg harness.Config, exps []harness.Experiment) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range harness.PlanExperiments(cfg, exps) {
		class := ClassOf(c.Cell)
		if !seen[class] {
			seen[class] = true
			out = append(out, class)
		}
	}
	sort.Strings(out)
	return out
}

// clientOf resolves the fairness identity: the self-reported client name,
// else the remote host.
func clientOf(req RunRequest, r *http.Request) string {
	if req.Client != "" {
		return req.Client
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// statusOf maps admission codes to HTTP statuses.
func statusOf(code string) int {
	switch code {
	case CodeQueueFull, CodeClientLimit, CodeShed:
		return http.StatusTooManyRequests
	case CodeBadRequest:
		return http.StatusBadRequest
	}
	return http.StatusServiceUnavailable
}

// WriteError emits the uniform error body plus a Retry-After header when
// there is advice to give. It is the one error reply of both wire
// protocols: the service's /v1 endpoints and the fabric's.
func WriteError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(math.Ceil(retryAfter.Seconds()))))
	}
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code, RetryAfterSec: retryAfter.Seconds()})
}

// writeJSON emits compact JSON with HTML escaping off: an embedded
// json.RawMessage (the run's Results) must keep its tokens byte-exact so the
// client can restore the canonical export formatting losslessly.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
