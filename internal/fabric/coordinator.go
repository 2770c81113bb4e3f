// Package fabric is the distributed sweep layer: a coordinator that plans a
// request into cells (via the harness), places them over its ledger of
// workers by rendezvous hashing, dispatches each cell over HTTP/JSON, and
// merges results through the unchanged local export path so distribution
// can never change an exported byte. The correctness oracle is
// byte-identity: every payload a worker returns is wrapped in the cellstore
// envelope and re-verified (schema pin, sha256, exact key) before it is
// trusted, and a verified payload is byte-for-byte what a local run would
// have persisted.
//
// Robustness model: workers are monitored by heartbeat with
// consecutive-failure scoring; a dead worker's in-flight cells are orphaned
// (its member context is canceled, and with it every lease hung off it) and
// re-dispatched to the next member in the cell's rendezvous order, which is
// idempotent because cells are content-addressed. Straggler cells are
// hedged to the next member after a p95-derived delay, first result wins.
// Dispatch failures retry with jittered backoff honoring Retry-After. All of
// it is observable through dedicated /metrics families.
package fabric

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"dylect/internal/cellstore"
	"dylect/internal/harness"
	"dylect/internal/retry"
	"dylect/internal/serve"
)

// Config tunes a Coordinator.
type Config struct {
	// Workers seeds the member set with worker base URLs; /fabric/v1/join
	// and /fabric/v1/leave mutate it at runtime.
	Workers []string
	// ConfigHash and Schema pin the sweep identity every dispatch carries
	// and every returned envelope is verified against.
	ConfigHash string
	Schema     string

	// Lease bounds one dispatched cell: a worker that neither answers nor
	// dies within it is treated as hung and the cell is orphaned. Default 2m.
	Lease time.Duration
	// HedgeAfter is the straggler delay before the latency window has
	// enough samples to derive a p95. Default 1s.
	HedgeAfter time.Duration
	// HedgeMin/HedgeMax clamp the p95-derived hedge delay. Defaults
	// 100ms / 10s.
	HedgeMin time.Duration
	HedgeMax time.Duration
	// Attempts bounds how many workers a cell is offered to before its
	// failure is surfaced. Default 3.
	Attempts int
	// RetryBackoff is the base of the full-jitter exponential backoff
	// between attempts; a worker's Retry-After overrides the drawn wait,
	// clamped to retry.DefaultCap. Default 200ms.
	RetryBackoff time.Duration
	// Heartbeat is the membership probe interval; DeadAfter consecutive
	// probe failures remove a worker from the ring and orphan its in-flight
	// cells. Defaults 1s / 3.
	Heartbeat time.Duration
	DeadAfter int
	// Seed feeds the backoff jitter. Jitter is scheduling, not simulation:
	// it can never reach an exported byte.
	Seed int64

	// Log receives membership and dispatch events; nil discards.
	Log *slog.Logger
	// Metrics receives the fabric exposition families; nil disables.
	Metrics *Metrics
}

// workerState is the coordinator's ledger entry for one worker. The ring is
// the set of entries with inRing set; there is no other membership record.
type workerState struct {
	url    string
	inRing bool
	fails  int // consecutive heartbeat/dispatch failures
	// ctx lives while the worker is in the ring: every lease on the worker
	// hangs off it, so cancel orphans them all at once.
	ctx    context.Context
	cancel context.CancelFunc
	// inflight counts the dispatches holding a lease on the worker.
	inflight int
}

// Coordinator places planned cells over its worker ledger and is installed
// as the harness's RemoteExecutor: Execute is called once per
// checkpoint-missing cell, concurrency-bounded by the runner's jobs
// semaphore.
type Coordinator struct {
	cfg Config
	// http dials workers. Leases bound each request, so it sets no global
	// timeout.
	http *http.Client
	log  *slog.Logger
	met  *Metrics
	// jitter draws the retry backoff; it keeps its own lock.
	jitter *retry.Jitter

	mu      sync.Mutex
	workers map[string]*workerState
	// window holds recent successful dispatch durations for the p95 hedge
	// delay (newest last, bounded to latencyWindow entries).
	window []time.Duration

	stop chan struct{}
	wg   sync.WaitGroup
}

const latencyWindow = 64

// New builds a Coordinator; Start launches its heartbeat.
func New(cfg Config) *Coordinator {
	if cfg.Lease <= 0 {
		cfg.Lease = 2 * time.Minute
	}
	if cfg.HedgeAfter <= 0 {
		cfg.HedgeAfter = time.Second
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = 100 * time.Millisecond
	}
	if cfg.HedgeMax <= 0 {
		cfg.HedgeMax = 10 * time.Second
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 200 * time.Millisecond
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3
	}
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	c := &Coordinator{
		cfg:     cfg,
		http:    &http.Client{},
		log:     log,
		met:     cfg.Metrics,
		workers: make(map[string]*workerState),
		jitter:  retry.NewJitter(cfg.Seed),
		stop:    make(chan struct{}),
	}
	for _, w := range cfg.Workers {
		c.admit(w)
	}
	return c
}

// CheckWorkerURL is the one rule for a worker address, applied to seeds,
// join and leave announcements and the CLI flags: an absolute http or https
// URL with a host. Anything else could never be dialed, so admitting it
// would only park cells on a member that fails every dispatch.
func CheckWorkerURL(s string) error {
	u, err := url.Parse(s)
	if err != nil {
		return fmt.Errorf("worker URL %q: %w", s, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("worker URL %q: want an absolute http or https URL with a host", s)
	}
	return nil
}

// admit adds a worker optimistically: it joins the ring immediately and the
// heartbeat evicts it if it turns out dead. Optimism is the right bias at
// boot — rejecting until the first probe would fail a sweep that arrives
// before the probe tick. A URL failing CheckWorkerURL is refused.
func (c *Coordinator) admit(url string) {
	if err := CheckWorkerURL(url); err != nil {
		c.log.Warn("fabric worker refused", "err", err)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.workers[url]
	if !ok {
		st = &workerState{url: url}
		c.workers[url] = st
	}
	st.fails = 0
	if !st.inRing {
		c.enterLocked(st, "fabric worker joined")
	}
}

// enterLocked puts a known worker into the ring under a fresh member
// context. The ledger owns that context, so it roots it in Background;
// dropLocked cancels it.
func (c *Coordinator) enterLocked(st *workerState, msg string) {
	st.inRing = true
	st.ctx, st.cancel = context.WithCancel(context.Background())
	c.log.Info(msg, "worker", st.url, "ring", c.ringSizeLocked())
	c.gaugesLocked()
}

// dropLocked takes a worker out of the ring and cancels its member context,
// and with it the lease of every dispatch in flight to it; those
// dispatches surface as orphans and re-dispatch.
func (c *Coordinator) dropLocked(url, why string) {
	st := c.workers[url]
	if st == nil || !st.inRing {
		return
	}
	st.inRing = false
	st.cancel()
	c.log.Warn("fabric worker dropped", "worker", url, "why", why,
		"orphaned_leases", st.inflight, "ring", c.ringSizeLocked())
	c.gaugesLocked()
}

// Forget removes a worker entirely (leave announcement): it exits the ring
// and the heartbeat stops probing it, so only a join re-admits it.
func (c *Coordinator) Forget(url string) { c.forget(url, "leave announced") }

func (c *Coordinator) forget(url, why string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked(url, why)
	delete(c.workers, url)
	c.gaugesLocked()
}

// replicasLocked is the placement: the in-ring members in key's rendezvous
// (highest random weight) order, highest ringHash(member, key) first, ties
// broken by URL. The first member owns the cell; failover and hedging walk
// the rest. It is a pure function of the ledger, so two coordinators with
// the same members agree on every order, and a join or leave moves only the
// keys the changed member ranks first (~1/N of them).
func (c *Coordinator) replicasLocked(key string) []string {
	type scored struct {
		url   string
		score uint64
	}
	ranked := make([]scored, 0, len(c.workers))
	for url, st := range c.workers {
		if st.inRing {
			ranked = append(ranked, scored{url, ringHash(url, key)})
		}
	}
	slices.SortFunc(ranked, func(a, b scored) int {
		return cmp.Or(cmp.Compare(b.score, a.score), strings.Compare(a.url, b.url))
	})
	out := make([]string, len(ranked))
	for i, s := range ranked {
		out[i] = s.url
	}
	return out
}

// ringHash scores member for key: the first 8 bytes of a SHA-256 over the
// member's URL, a NUL (which no URL passing CheckWorkerURL holds) and the
// key. Cryptographic dispersion matters here: the skew bound the tests
// enforce assumes the scores are uniform.
func ringHash(member, key string) uint64 {
	var buf [128]byte
	sum := sha256.Sum256(append(append(append(buf[:0], member...), 0), key...))
	return binary.BigEndian.Uint64(sum[:8])
}

func (c *Coordinator) ringSizeLocked() int {
	n := 0
	for _, st := range c.workers {
		if st.inRing {
			n++
		}
	}
	return n
}

func (c *Coordinator) gaugesLocked() {
	if c.met == nil {
		return
	}
	c.met.RingSize.Set(float64(c.ringSizeLocked()))
	c.met.WorkersKnown.Set(float64(len(c.workers)))
}

// Start launches the heartbeat loop; ctx bounds it alongside Stop.
func (c *Coordinator) Start(ctx context.Context) {
	c.wg.Add(1)
	go c.heartbeatLoop(ctx)
}

// Stop halts the heartbeat and waits for it.
func (c *Coordinator) Stop() {
	close(c.stop)
	c.wg.Wait()
}

func (c *Coordinator) heartbeatLoop(ctx context.Context) {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll(ctx)
		}
	}
}

// probeAll heartbeats every known worker: a live /readyz resets its failure
// score (and re-admits it to the ring); DeadAfter consecutive failures drop
// it and orphan its leases.
func (c *Coordinator) probeAll(ctx context.Context) {
	c.mu.Lock()
	urls := make([]string, 0, len(c.workers))
	for u := range c.workers {
		urls = append(urls, u)
	}
	c.mu.Unlock()
	sort.Strings(urls)
	for _, u := range urls {
		alive := c.probe(ctx, u)
		c.mu.Lock()
		st := c.workers[u]
		if st == nil { // forgotten while probing
			c.mu.Unlock()
			continue
		}
		if alive {
			st.fails = 0
			if !st.inRing {
				c.enterLocked(st, "fabric worker rejoined")
			}
		} else {
			st.fails++
			if st.inRing && st.fails >= c.cfg.DeadAfter {
				c.dropLocked(u, fmt.Sprintf("%d consecutive heartbeat failures", st.fails))
			}
		}
		c.mu.Unlock()
	}
}

// probe checks one worker's readiness with a bounded GET /readyz.
func (c *Coordinator) probe(ctx context.Context, url string) bool {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.Heartbeat)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Register mounts the coordinator's membership endpoints on mux.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc(JoinPath, func(rw http.ResponseWriter, req *http.Request) {
		c.handleMember(rw, req, true)
	})
	mux.HandleFunc(LeavePath, func(rw http.ResponseWriter, req *http.Request) {
		c.handleMember(rw, req, false)
	})
}

func (c *Coordinator) handleMember(rw http.ResponseWriter, req *http.Request, join bool) {
	if req.Method != http.MethodPost {
		serve.WriteError(rw, http.StatusMethodNotAllowed, serve.CodeBadRequest, "POST only", 0)
		return
	}
	var mr MemberRequest
	err := decodeBody(rw, req, &mr)
	if err == nil {
		err = CheckWorkerURL(mr.Worker)
	}
	if err != nil {
		serve.WriteError(rw, http.StatusBadRequest, serve.CodeBadRequest, "bad member request: "+err.Error(), 0)
		return
	}
	if join {
		c.admit(mr.Worker)
	} else {
		c.Forget(mr.Worker)
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(map[string]any{"ok": true, "ring": c.RingSize()})
}

// DispatchError is one failed dispatch, typed so the retry loop can tell
// worker-death (orphaned: re-dispatch at once) from worker-reported errors
// (respect Retry-After, count against the breaker-feeding failure score).
type DispatchError struct {
	Worker     string
	Code       string
	Status     int
	Orphaned   bool
	RetryAfter time.Duration
	Err        error
	Msg        string
}

func (e *DispatchError) Error() string {
	switch {
	case e.Orphaned:
		return fmt.Sprintf("fabric: worker %s died mid-cell: %v", e.Worker, e.Err)
	case e.Err != nil:
		return fmt.Sprintf("fabric: worker %s: %v", e.Worker, e.Err)
	default:
		return fmt.Sprintf("fabric: worker %s: %s (%s)", e.Worker, e.Msg, e.Code)
	}
}

func (e *DispatchError) Unwrap() error { return e.Err }

// errNoWorkers fails a dispatch attempt when the ring is empty; the retry
// loop backs off and re-checks, so a cluster booting workers a moment after
// the coordinator still serves its first request.
var errNoWorkers = errors.New("fabric: no live workers in the ring")

// Execute is the harness RemoteExecutor: run one cell somewhere on the
// ring, verify the returned envelope, and hand back the payload. It owns
// placement (the cell's rendezvous order, its failover order), bounded retry
// with jittered backoff honoring Retry-After, hedged dispatch of
// stragglers, and orphan re-dispatch. The harness passes a context no
// requester cancels, so the lease and attempt bounds settle a dispatch.
func (c *Coordinator) Execute(ctx context.Context, spec harness.CellSpec) ([]byte, error) {
	cellKey := spec.CellKey()
	storeKey, err := harness.PayloadKey(c.cfg.ConfigHash, spec)
	if err != nil {
		return nil, err
	}
	var last error
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if attempt > 0 {
			if err := retry.Sleep(ctx, c.delay(attempt, last)); err != nil {
				return nil, err
			}
		}
		c.mu.Lock()
		reps := c.replicasLocked(cellKey)
		c.mu.Unlock()
		if len(reps) == 0 {
			last = errNoWorkers
			continue
		}
		primary := reps[attempt%len(reps)]
		hedge := ""
		if len(reps) > 1 {
			hedge = reps[(attempt+1)%len(reps)]
		}
		payload, err := c.dispatchHedged(ctx, cellKey, storeKey, spec, primary, hedge)
		if err == nil {
			return payload, nil
		}
		last = err
		c.log.Warn("fabric dispatch failed", "cell", cellKey, "attempt", attempt+1, "err", err)
		var de *DispatchError
		if errors.As(err, &de) && de.Code == "panic" {
			// A worker executed the cell and it panicked deterministically;
			// surface it as a panic so the coordinator's breaker machinery
			// opens the class instead of hammering every replica.
			return nil, fmt.Errorf("fabric: cell %s failed on %s: %s: %w",
				cellKey, de.Worker, de.Msg, harness.ErrCellPanic)
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("fabric: cell %s: %w", cellKey, ctx.Err())
		}
	}
	return nil, fmt.Errorf("fabric: cell %s: %d dispatch attempts failed: %w", cellKey, c.cfg.Attempts, last)
}

// delay is the wait before a retry: full jitter under the shared
// retry.Ceiling schedule, or a worker's Retry-After advice clamped to the
// same cap, so a worker cannot park a cell past the cap or fail it against a
// deadline the next replica could meet.
func (c *Coordinator) delay(attempt int, last error) time.Duration {
	var advice time.Duration
	var de *DispatchError
	if errors.As(last, &de) {
		advice = de.RetryAfter
	}
	return c.jitter.Delay(c.cfg.RetryBackoff, retry.DefaultCap, attempt, advice)
}

// hedgeDelay derives the straggler threshold: the p95 of the recent
// successful-dispatch window, clamped to [HedgeMin, HedgeMax]; before the
// window holds 8 samples it falls back to HedgeAfter.
func (c *Coordinator) hedgeDelay() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.window) < 8 {
		return c.cfg.HedgeAfter
	}
	var buf [latencyWindow]time.Duration
	sorted := buf[:copy(buf[:], c.window)]
	slices.Sort(sorted)
	p95 := sorted[(len(sorted)*95+99)/100-1]
	if p95 < c.cfg.HedgeMin {
		return c.cfg.HedgeMin
	}
	if p95 > c.cfg.HedgeMax {
		return c.cfg.HedgeMax
	}
	return p95
}

func (c *Coordinator) recordLatency(d time.Duration) {
	c.mu.Lock()
	c.window = append(c.window, d)
	if len(c.window) > latencyWindow {
		c.window = c.window[len(c.window)-latencyWindow:]
	}
	c.mu.Unlock()
}

// dispatchHedged runs one dispatch attempt with straggler hedging: the
// primary is dispatched immediately; if it has not settled within
// hedgeDelay and a distinct replica exists, a duplicate fires there and the
// first success wins (the loser's lease is canceled). Duplicates are safe:
// the cell is content-addressed, so both sides produce the same record.
func (c *Coordinator) dispatchHedged(ctx context.Context, cellKey, storeKey string, spec harness.CellSpec, primary, hedge string) ([]byte, error) {
	type outcome struct {
		payload []byte
		err     error
		worker  string
	}
	ch := make(chan outcome, 2) // buffered: a losing dispatch never blocks
	dispatch := func(dctx context.Context, worker string) {
		p, err := c.dispatchOne(dctx, cellKey, storeKey, spec, worker)
		ch <- outcome{payload: p, err: err, worker: worker}
	}
	primCtx, primCancel := context.WithCancel(ctx)
	defer primCancel()
	go dispatch(primCtx, primary)

	var hedgeTimer <-chan time.Time
	if hedge != "" && hedge != primary {
		t := time.NewTimer(c.hedgeDelay())
		defer t.Stop()
		hedgeTimer = t.C
	}
	hedgeCtx, hedgeCancel := context.WithCancel(ctx)
	defer hedgeCancel()

	outstanding := 1
	var lastErr error
	for {
		select {
		case <-hedgeTimer:
			hedgeTimer = nil
			if c.met != nil {
				c.met.Hedges.Inc("fired")
			}
			c.log.Info("fabric hedge fired", "cell", cellKey, "straggler", primary, "hedge", hedge)
			outstanding++
			go dispatch(hedgeCtx, hedge)
		case out := <-ch:
			outstanding--
			if out.err == nil {
				if out.worker == hedge && c.met != nil {
					c.met.Hedges.Inc("won")
				}
				// Cancel the loser; its dispatch settles into the buffered
				// channel and is discarded.
				primCancel()
				hedgeCancel()
				return out.payload, nil
			}
			lastErr = out.err
			if outstanding == 0 {
				return nil, lastErr
			}
		}
	}
}

// dispatchOne sends one cell to one worker under a fresh lease and verifies
// what comes back. Every exit increments dispatches{worker,outcome}.
func (c *Coordinator) dispatchOne(ctx context.Context, cellKey, storeKey string, spec harness.CellSpec, worker string) ([]byte, error) {
	leaseCtx, cancel := context.WithTimeout(ctx, c.cfg.Lease)
	defer cancel()
	release := c.lease(worker, cancel)
	defer release()

	body, err := json.Marshal(CellRequest{Spec: spec, ConfigHash: c.cfg.ConfigHash, Schema: c.cfg.Schema})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(leaseCtx, http.MethodPost, worker+CellPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The coordinator itself gave up (hedge race lost, request gone,
			// drain): not the worker's fault.
			c.count(worker, OutcomeCanceled)
			return nil, &DispatchError{Worker: worker, Code: serve.CodeCanceled, Err: ctx.Err()}
		}
		// The lease expired (hung worker), the heartbeat canceled it (dead
		// worker), or the transport broke mid-flight (SIGKILLed worker):
		// the cell is orphaned and must be re-dispatched elsewhere.
		c.count(worker, OutcomeOrphaned)
		if c.met != nil {
			c.met.Orphans.Inc()
		}
		c.noteFailure(worker)
		return nil, &DispatchError{Worker: worker, Orphaned: true, Err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		c.count(worker, OutcomeOrphaned)
		if c.met != nil {
			c.met.Orphans.Inc()
		}
		c.noteFailure(worker)
		return nil, &DispatchError{Worker: worker, Orphaned: true, Err: err}
	}

	if resp.StatusCode != http.StatusOK {
		var er serve.ErrorResponse
		json.Unmarshal(data, &er)
		de := &DispatchError{Worker: worker, Code: er.Code, Status: resp.StatusCode, Msg: er.Error,
			RetryAfter: retry.Advice(resp.Header.Get("Retry-After"), er.RetryAfterSec)}
		if er.Code == "" {
			de.Msg = string(bytes.TrimSpace(data))
		}
		if er.Code == CodeConfigMismatch {
			// A worker running a different config or schema can never serve
			// this sweep. Forget it as a leave would: a ledger entry would
			// let its next good heartbeat re-admit it, so only a join does.
			c.forget(worker, "config/schema mismatch")
		}
		c.count(worker, OutcomeError)
		c.noteFailure(worker)
		return nil, de
	}

	payload, err := cellstore.DecodeEnvelope(c.cfg.Schema, storeKey, data)
	if err != nil {
		// The worker's bytes failed sha256/schema/key verification. Tell it
		// to re-verify (and so quarantine) its durable copy, then treat the
		// dispatch as failed so the cell re-dispatches to the next replica.
		c.count(worker, OutcomeVerifyFailed)
		c.noteFailure(worker)
		c.requestVerify(worker, spec)
		c.log.Warn("fabric envelope rejected", "cell", cellKey, "worker", worker, "err", err)
		return nil, &DispatchError{Worker: worker, Code: cellstore.ReasonChecksum, Err: err}
	}
	c.count(worker, OutcomeOK)
	c.noteSuccess(worker)
	c.recordLatency(time.Since(start))
	return payload, nil
}

// requestVerify asks a worker to re-verify its durable copy of a cell whose
// envelope failed verification in transit. Best-effort with its own bound:
// the worker may be the reason the bytes were bad.
func (c *Coordinator) requestVerify(worker string, spec harness.CellSpec) {
	vctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	body, err := json.Marshal(CellRequest{Spec: spec, ConfigHash: c.cfg.ConfigHash, Schema: c.cfg.Schema})
	if err != nil {
		return
	}
	req, err := http.NewRequestWithContext(vctx, http.MethodPost, worker+VerifyPath, bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := c.http.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func (c *Coordinator) count(worker, outcome string) {
	if c.met != nil {
		c.met.Dispatches.Inc(worker, outcome)
	}
}

// noteFailure scores a dispatch failure against the worker; like heartbeat
// failures, DeadAfter consecutive ones drop it from the ring.
func (c *Coordinator) noteFailure(worker string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.workers[worker]
	if st == nil {
		return
	}
	st.fails++
	if st.inRing && st.fails >= c.cfg.DeadAfter {
		c.dropLocked(worker, fmt.Sprintf("%d consecutive dispatch failures", st.fails))
	}
}

func (c *Coordinator) noteSuccess(worker string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.workers[worker]; st != nil {
		st.fails = 0
	}
}

// lease hangs a dispatch's cancel off worker's member context, so dropping
// the worker orphans the dispatch, and counts the dispatch in the worker's
// in-flight total until release runs. A dispatch to a worker that left the
// ring after placement is orphaned at once.
func (c *Coordinator) lease(worker string, cancel context.CancelFunc) (release func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.workers[worker]
	if st == nil || !st.inRing {
		cancel()
		return func() {}
	}
	st.inflight++
	stop := context.AfterFunc(st.ctx, cancel)
	return func() {
		stop()
		c.mu.Lock()
		st.inflight--
		c.mu.Unlock()
	}
}

// RingSize reports live ring membership (tests and stats).
func (c *Coordinator) RingSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ringSizeLocked()
}
