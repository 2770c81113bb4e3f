package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dylect/internal/cellstore"
	"dylect/internal/engine"
	"dylect/internal/harness"
	"dylect/internal/system"
	"dylect/internal/telemetry"
)

// microCfg mirrors the harness micro test config: one workload, tiny
// footprint, short window — cells settle in milliseconds.
func microCfg() harness.Config {
	return harness.Config{
		Workloads:      []string{"omnetpp"},
		ScaleDivisor:   16,
		FootprintFloor: 64 << 20,
		WarmupAccesses: 30_000,
		Window:         15 * engine.Microsecond,
		Audit:          true,
	}
}

// microPlan is microCfg's plan of every registered experiment: the cells,
// normalized, that a coordinator under microCfg sends.
var microPlan = sync.OnceValue(func() []harness.PlannedCell {
	return harness.PlanExperiments(microCfg(), harness.Experiments())
})

// plannedCell is the first cell of microPlan whose CellKey is key; the
// first of a key carries the default knobs.
func plannedCell(key string) harness.CellSpec {
	for _, c := range microPlan() {
		if c.Cell == key {
			return c.CellSpec
		}
	}
	panic("microCfg plans no cell " + key)
}

// microSpec is one planned cell of microCfg, for direct Execute tests.
func microSpec() harness.CellSpec { return plannedCell("omnetpp/tmcc/high/4K") }

// testWorker is one in-process worker: a real runner behind the fabric
// handler set, with an optional middleware wrapping the cell endpoint to
// script transport-level faults the CellInjector cannot express.
func testWorker(t *testing.T, cfg harness.Config, wrap func(http.HandlerFunc) http.HandlerFunc) (*httptest.Server, *harness.Runner) {
	t.Helper()
	r := harness.NewRunner(cfg)
	w := NewWorker(WorkerOptions{
		Runner:     r,
		ConfigHash: harness.ConfigHash(cfg),
		Schema:     system.SchemaVersion,
	})
	mux := http.NewServeMux()
	w.Register(mux)
	if wrap != nil {
		inner := mux
		outer := http.NewServeMux()
		outer.HandleFunc(CellPath, wrap(func(rw http.ResponseWriter, req *http.Request) {
			inner.ServeHTTP(rw, req)
		}))
		outer.Handle("/", inner)
		mux = outer
	}
	mux.HandleFunc("/readyz", func(rw http.ResponseWriter, req *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, r
}

// newCoordinator builds a coordinator with fast test timings and a live
// metrics registry; the heartbeat is not started unless the test needs it.
func newCoordinator(workers []string, mut func(*Config)) (*Coordinator, *Metrics) {
	met := NewMetrics(telemetry.NewRegistry())
	cfg := Config{
		Workers:      workers,
		ConfigHash:   harness.ConfigHash(microCfg()),
		Schema:       system.SchemaVersion,
		HedgeAfter:   time.Minute, // hedging off unless the test opts in
		RetryBackoff: 5 * time.Millisecond,
		Metrics:      met,
		Seed:         1,
	}
	if mut != nil {
		mut(&cfg)
	}
	return New(cfg), met
}

// TestFabricClusterByteIdentity is the tentpole oracle in-process: a
// two-worker cluster sweep exports byte-for-byte what a single-process run
// exports.
func TestFabricClusterByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	e, ok := harness.ByName("fig19")
	if !ok {
		t.Fatal("fig19 missing")
	}
	cfg := microCfg()

	ref := harness.NewRunner(cfg)
	if _, err := harness.RunExperiments(ref, []harness.Experiment{e}, harness.ExecOptions{Jobs: 8}); err != nil {
		t.Fatal(err)
	}
	want, err := ref.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}

	w1, _ := testWorker(t, cfg, nil)
	w2, _ := testWorker(t, cfg, nil)
	coord, met := newCoordinator([]string{w1.URL, w2.URL}, nil)

	cr := harness.NewRunner(cfg)
	cr.SetRemoteExecutor(coord.Execute)
	if _, err := harness.RunExperiments(cr, []harness.Experiment{e}, harness.ExecOptions{Jobs: 4}); err != nil {
		t.Fatal(err)
	}
	got, err := cr.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("cluster export differs from single-process run: %d vs %d bytes", len(got), len(want))
	}
	okTotal := met.Dispatches.Value(w1.URL, OutcomeOK) + met.Dispatches.Value(w2.URL, OutcomeOK)
	if okTotal == 0 {
		t.Error("no ok dispatches recorded; cells did not go over the fabric")
	}
	if met.Dispatches.Value(w1.URL, OutcomeOK) == 0 || met.Dispatches.Value(w2.URL, OutcomeOK) == 0 {
		t.Logf("note: dispatch spread w1=%.0f w2=%.0f (ring may legitimately favor one for a tiny sweep)",
			met.Dispatches.Value(w1.URL, OutcomeOK), met.Dispatches.Value(w2.URL, OutcomeOK))
	}
}

// TestFabricMemoHitBytes: once a worker has settled a cell, every dispatch
// of it answers with the same bytes, those are the record the worker's
// store holds for the cell and EncodeEnvelope of the cell's payload, and 16
// dispatches at once change none of that.
func TestFabricMemoHitBytes(t *testing.T) {
	cfg := microCfg()
	hash := harness.ConfigHash(cfg)
	dir := t.TempDir()
	cp, err := harness.OpenCheckpointStore(dir, cfg, harness.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	r := harness.NewRunner(cfg)
	r.AttachCheckpoint(cp)
	w := NewWorker(WorkerOptions{Runner: r, Checkpoint: cp, ConfigHash: hash, Schema: system.SchemaVersion})
	mux := http.NewServeMux()
	w.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// The coordinator sends normalized specs, under which the store files
	// its records; capture one the way a coordinator's runner makes it.
	var spec harness.CellSpec
	cr := harness.NewRunner(cfg)
	cr.SetRemoteExecutor(func(ctx context.Context, s harness.CellSpec) ([]byte, error) {
		spec = s
		return r.ExecuteCell(ctx, s)
	})
	if _, err := cr.Result("omnetpp", system.DesignTMCC, system.SettingHigh); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(CellRequest{Spec: spec, ConfigHash: hash, Schema: system.SchemaVersion})
	if err != nil {
		t.Fatal(err)
	}
	post := func() ([]byte, error) {
		resp, err := http.Post(ts.URL+CellPath, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, data)
		}
		return data, err
	}
	first, err := post()
	if err != nil {
		t.Fatal(err)
	}

	records, err := filepath.Glob(filepath.Join(dir, "records", "*", "*.cell"))
	if err != nil || len(records) != 1 {
		t.Fatalf("store holds records %q (%v), want one", records, err)
	}
	record, err := os.ReadFile(records[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, record) {
		t.Error("memo-hit body differs from the worker store's record")
	}
	payload, err := r.ExecuteCell(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	key, err := harness.PayloadKey(hash, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cellstore.EncodeEnvelope(system.SchemaVersion, key, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want) {
		t.Error("memo-hit body differs from EncodeEnvelope of the cell's payload")
	}

	const n = 16
	var wg sync.WaitGroup
	bodies, errs := make([][]byte, n), make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], errs[i] = post()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("dispatch %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], first) {
			t.Fatalf("concurrent dispatch %d answered different bytes", i)
		}
	}
	if runs := r.Runs(); runs != 1 {
		t.Errorf("worker simulated %d times, want 1", runs)
	}
}

// TestFabricOrphanRedispatch kills the transport mid-flight on the first
// dispatch a worker receives: the coordinator must count an orphan and
// settle the cell on the other worker with a verified payload.
func TestFabricOrphanRedispatch(t *testing.T) {
	cfg := microCfg()
	var aborted atomic.Bool
	abortFirst := func(next http.HandlerFunc) http.HandlerFunc {
		return func(rw http.ResponseWriter, req *http.Request) {
			if aborted.CompareAndSwap(false, true) {
				// Drop the connection without a response: the wire-level
				// signature of a SIGKILLed worker.
				panic(http.ErrAbortHandler)
			}
			next(rw, req)
		}
	}
	w1, _ := testWorker(t, cfg, abortFirst)
	w2, _ := testWorker(t, cfg, abortFirst)
	coord, met := newCoordinator([]string{w1.URL, w2.URL}, nil)

	payload, err := coord.Execute(context.Background(), microSpec())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(payload) == 0 {
		t.Fatal("empty payload")
	}
	if !aborted.Load() {
		t.Fatal("fault never fired")
	}
	if met.Orphans.Value() < 1 {
		t.Errorf("orphans = %.0f, want >= 1", met.Orphans.Value())
	}
	orphaned := met.Dispatches.Value(w1.URL, OutcomeOrphaned) + met.Dispatches.Value(w2.URL, OutcomeOrphaned)
	okCount := met.Dispatches.Value(w1.URL, OutcomeOK) + met.Dispatches.Value(w2.URL, OutcomeOK)
	if orphaned < 1 || okCount < 1 {
		t.Errorf("dispatches: orphaned=%.0f ok=%.0f, want both >= 1", orphaned, okCount)
	}
}

// TestFabricVerifyFailedRedispatch makes the first dispatch return bytes
// that fail envelope verification: the coordinator must reject them, ask
// the worker to re-verify its copy, and re-dispatch elsewhere.
func TestFabricVerifyFailedRedispatch(t *testing.T) {
	cfg := microCfg()
	var corrupted atomic.Bool
	corruptFirst := func(next http.HandlerFunc) http.HandlerFunc {
		return func(rw http.ResponseWriter, req *http.Request) {
			if corrupted.CompareAndSwap(false, true) {
				// A structurally-valid envelope whose checksum cannot match.
				rw.Header().Set("Content-Type", "application/json")
				rw.Write([]byte(`{"format":1,"schema":"` + system.SchemaVersion +
					`","key":"bogus","sha256":"00","payload":{}}`))
				return
			}
			next(rw, req)
		}
	}
	w1, _ := testWorker(t, cfg, corruptFirst)
	w2, _ := testWorker(t, cfg, corruptFirst)
	coord, met := newCoordinator([]string{w1.URL, w2.URL}, nil)

	payload, err := coord.Execute(context.Background(), microSpec())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !corrupted.Load() {
		t.Fatal("corruption never served")
	}
	// The settled payload must decode as a verified envelope again on our
	// side — prove the corrupt bytes were not adopted.
	if strings.Contains(string(payload), `"sha256":"00"`) {
		t.Fatal("corrupt envelope leaked through verification")
	}
	vf := met.Dispatches.Value(w1.URL, OutcomeVerifyFailed) + met.Dispatches.Value(w2.URL, OutcomeVerifyFailed)
	if vf < 1 {
		t.Errorf("verify-failed dispatches = %.0f, want >= 1", vf)
	}
}

// TestFabricHedgeStraggler blocks the primary dispatch long enough for the
// hedge to fire on the other replica and win.
func TestFabricHedgeStraggler(t *testing.T) {
	cfg := microCfg()
	release := make(chan struct{})
	var stalled atomic.Bool
	stallFirst := func(next http.HandlerFunc) http.HandlerFunc {
		return func(rw http.ResponseWriter, req *http.Request) {
			if stalled.CompareAndSwap(false, true) {
				<-release // straggle until the test ends
			}
			next(rw, req)
		}
	}
	w1, _ := testWorker(t, cfg, stallFirst)
	w2, _ := testWorker(t, cfg, stallFirst)
	coord, met := newCoordinator([]string{w1.URL, w2.URL}, func(c *Config) {
		c.HedgeAfter = 30 * time.Millisecond
	})
	defer close(release)

	payload, err := coord.Execute(context.Background(), microSpec())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(payload) == 0 {
		t.Fatal("empty payload")
	}
	if met.Hedges.Value("fired") < 1 {
		t.Errorf("hedges fired = %.0f, want >= 1", met.Hedges.Value("fired"))
	}
	if met.Hedges.Value("won") < 1 {
		t.Errorf("hedges won = %.0f, want >= 1", met.Hedges.Value("won"))
	}
}

// TestFabricCanceledDispatchSettles: a coordinator Execute is canceled while
// the worker's attempt runs (a hedge loser or an orphaned lease looks the
// same to the worker). The worker stops waiting but finishes the cell, so
// the next dispatch of it is a memo hit: one attempt in all, one
// simulation.
func TestFabricCanceledDispatchSettles(t *testing.T) {
	cfg := microCfg()
	returned := make(chan struct{}, 2)
	signalReturn := func(next http.HandlerFunc) http.HandlerFunc {
		return func(rw http.ResponseWriter, req *http.Request) {
			next(rw, req)
			returned <- struct{}{}
		}
	}
	w, wr := testWorker(t, cfg, signalReturn)
	started, release := make(chan struct{}), make(chan struct{})
	var attempts atomic.Int32
	wr.SetCellHook(func(string) error {
		if attempts.Add(1) == 1 {
			close(started)
			<-release
		}
		return nil
	})
	coord, _ := newCoordinator([]string{w.URL}, func(c *Config) { c.Attempts = 1 })

	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() {
		_, err := coord.Execute(ctx, microSpec())
		first <- err
	}()
	<-started
	cancel()
	if err := <-first; err == nil {
		t.Fatal("canceled Execute reported success")
	}
	// The worker's handler has given up its wait before the attempt returns.
	<-returned
	close(release)

	if _, err := coord.Execute(context.Background(), microSpec()); err != nil {
		t.Fatalf("second dispatch: %v", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("worker attempted the cell %d times, want 1: the canceled dispatch discarded its simulation", n)
	}
	if n := wr.Runs(); n != 1 {
		t.Errorf("worker simulated %d cells, want 1", n)
	}
}

// TestFabricConfigMismatchEvicts proves a worker running a different config
// is evicted from the ring on first contact instead of being retried, and
// stays out: it answers every heartbeat, yet across 20 heartbeat intervals
// it neither rejoins the ring nor receives another dispatch.
func TestFabricConfigMismatchEvicts(t *testing.T) {
	other := microCfg()
	other.WarmupAccesses++ // a different sweep identity
	w1, _ := testWorker(t, other, nil)
	const heartbeat = 10 * time.Millisecond
	coord, met := newCoordinator([]string{w1.URL}, func(c *Config) {
		c.Attempts = 2
		c.Heartbeat = heartbeat
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord.Start(ctx)
	defer coord.Stop()

	execute := func() {
		t.Helper()
		_, err := coord.Execute(context.Background(), microSpec())
		if err == nil {
			t.Fatal("Execute succeeded against a mismatched worker")
		}
		if !strings.Contains(err.Error(), "no live workers") && !strings.Contains(err.Error(), CodeConfigMismatch) {
			t.Errorf("error %q names neither the mismatch nor the empty ring", err)
		}
	}
	execute()
	for i := 0; i < 20; i++ {
		if n := coord.RingSize(); n != 0 {
			t.Fatalf("ring size = %d %v after config mismatch, want 0", n, time.Duration(i)*heartbeat)
		}
		time.Sleep(heartbeat)
	}
	execute()
	dispatches := 0.0
	for _, outcome := range []string{OutcomeOK, OutcomeError, OutcomeOrphaned, OutcomeVerifyFailed, OutcomeCanceled} {
		dispatches += met.Dispatches.Value(w1.URL, outcome)
	}
	if dispatches != 1 {
		t.Errorf("mismatched worker took %.0f dispatches, want 1", dispatches)
	}
}

// TestFabricForgetOrphansOnlyItsMember holds one dispatch stalled on each of
// two workers and forgets one worker: its dispatch is orphaned and settles
// on the other worker, and the other worker's own dispatch, still held,
// settles ok once released.
func TestFabricForgetOrphansOnlyItsMember(t *testing.T) {
	cfg := microCfg()
	stallFirst := func(taken chan<- struct{}, release <-chan struct{}) func(http.HandlerFunc) http.HandlerFunc {
		var stalled atomic.Bool
		return func(next http.HandlerFunc) http.HandlerFunc {
			return func(rw http.ResponseWriter, req *http.Request) {
				if stalled.CompareAndSwap(false, true) {
					taken <- struct{}{}
					select {
					case <-release:
					case <-req.Context().Done():
						return
					}
				}
				next(rw, req)
			}
		}
	}
	taken1, taken2 := make(chan struct{}, 1), make(chan struct{}, 1)
	release1, release2 := make(chan struct{}), make(chan struct{})
	// A stalled handler has not read its body, so it does not see its
	// client go away; release both before the servers close, or a failing
	// run hangs in cleanup.
	var once2 sync.Once
	unstall2 := func() { once2.Do(func() { close(release2) }) }
	defer close(release1)
	defer unstall2()
	w1, _ := testWorker(t, cfg, stallFirst(taken1, release1))
	w2, _ := testWorker(t, cfg, stallFirst(taken2, release2))
	coord, met := newCoordinator([]string{w1.URL, w2.URL}, nil)

	// One planned cell owned by each worker.
	spec := map[string]harness.CellSpec{}
	for _, c := range microPlan() {
		if o := owner(coord, c.CellKey()); spec[o] == (harness.CellSpec{}) {
			spec[o] = c.CellSpec
		}
	}
	if len(spec) != 2 {
		t.Fatalf("plan placed cells on %d workers, want 2", len(spec))
	}
	type settled struct {
		payload []byte
		err     error
	}
	execute := func(worker string) <-chan settled {
		ch := make(chan settled, 1)
		go func() {
			p, err := coord.Execute(context.Background(), spec[worker])
			ch <- settled{p, err}
		}()
		return ch
	}
	got1, got2 := execute(w1.URL), execute(w2.URL)
	<-taken1
	<-taken2

	coord.Forget(w1.URL)
	var s1 settled
	select {
	case s1 = <-got1:
	case <-time.After(time.Minute):
		t.Fatal("forgotten worker's dispatch still held a minute after Forget")
	}
	if s1.err != nil || len(s1.payload) == 0 {
		t.Fatalf("forgotten worker's cell: %d bytes, err %v; want it re-dispatched", len(s1.payload), s1.err)
	}
	if n := met.Dispatches.Value(w1.URL, OutcomeOrphaned); n != 1 {
		t.Errorf("forgotten worker: %.0f orphaned dispatches, want 1", n)
	}
	if n := met.Dispatches.Value(w2.URL, OutcomeOK); n != 1 {
		t.Errorf("other worker settled %.0f dispatches before its release, want 1 (the re-dispatch)", n)
	}

	unstall2()
	s2 := <-got2
	if s2.err != nil || len(s2.payload) == 0 {
		t.Fatalf("other worker's cell: %d bytes, err %v", len(s2.payload), s2.err)
	}
	for _, outcome := range []string{OutcomeOrphaned, OutcomeCanceled, OutcomeError} {
		if n := met.Dispatches.Value(w2.URL, outcome); n != 0 {
			t.Errorf("other worker: %.0f %s dispatches, want 0", n, outcome)
		}
	}
	if n := met.Dispatches.Value(w2.URL, OutcomeOK); n != 2 {
		t.Errorf("other worker: %.0f ok dispatches, want 2", n)
	}
}

// TestFabricMembershipEndpoints drives join and leave over HTTP the way
// workers announce themselves.
func TestFabricMembershipEndpoints(t *testing.T) {
	coord, met := newCoordinator(nil, nil)
	mux := http.NewServeMux()
	coord.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	post := func(path, worker string) int {
		body, _ := json.Marshal(MemberRequest{Worker: worker})
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(JoinPath, "http://10.0.0.1:8344"); code != http.StatusOK {
		t.Fatalf("join: status %d", code)
	}
	if coord.RingSize() != 1 || met.RingSize.Value() != 1 {
		t.Fatalf("ring size %d (gauge %.0f) after join", coord.RingSize(), met.RingSize.Value())
	}
	if code := post(LeavePath, "http://10.0.0.1:8344"); code != http.StatusOK {
		t.Fatalf("leave: status %d", code)
	}
	if coord.RingSize() != 0 || met.WorkersKnown.Value() != 0 {
		t.Fatalf("ring size %d (known %.0f) after leave", coord.RingSize(), met.WorkersKnown.Value())
	}
	// Malformed membership bodies are rejected.
	resp, err := http.Post(ts.URL+JoinPath, "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad join body: status %d", resp.StatusCode)
	}
}

// TestFabricHeartbeatEvictsDeadWorker starts the heartbeat against a worker
// that is gone; after DeadAfter missed probes it must leave the ring.
func TestFabricHeartbeatEvictsDeadWorker(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // the port is now refused
	coord, _ := newCoordinator([]string{deadURL}, func(c *Config) {
		c.Heartbeat = 10 * time.Millisecond
		c.DeadAfter = 2
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord.Start(ctx)
	defer coord.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for coord.RingSize() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker still in ring after %d+ missed heartbeats", 2)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
