package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dylect/internal/faults"
	"dylect/internal/harness"
)

// newTestServer builds a Server plus an httptest listener; mutate opts via
// mut before construction.
func newTestServer(t *testing.T, ctx context.Context, mut func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	opts := Options{
		Config:         testConfig(),
		Jobs:           4,
		DefaultTimeout: time.Minute,
		MaxTimeout:     2 * time.Minute,
	}
	if mut != nil {
		mut(&opts)
	}
	s := New(opts)
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postRun performs one raw /v1/run call without client retries.
func postRun(t *testing.T, base string, req RunRequest) (int, []byte, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

func get(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestServeByteIdenticalToDirectRun is the service's determinism
// acceptance: results served over HTTP are byte-identical to a direct
// in-process run of the same experiments under the same config.
func TestServeByteIdenticalToDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	leakCheck(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, ts := newTestServer(t, ctx, nil)

	c := NewClient(ts.URL, 1)
	resp, err := c.Run(context.Background(), RunRequest{Experiments: []string{"fig4"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Partial {
		t.Fatalf("unfaulted run reported partial: %+v", resp.Experiments)
	}
	if len(resp.Experiments) != 1 || len(resp.Experiments[0].Blocks) == 0 {
		t.Fatalf("experiment output missing: %+v", resp.Experiments)
	}

	direct := harness.NewRunner(testConfig())
	direct.SetJobs(4)
	exps := mustExperiments(t, "fig4")
	for _, out := range harness.RunShared(direct, exps) {
		if out.Err != nil {
			t.Fatalf("direct run failed: %v", out.Err)
		}
	}
	want, err := direct.ExportJSONFor(exps)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Results) != string(want) {
		t.Errorf("served results differ from direct run:\nserved %d bytes, direct %d bytes",
			len(resp.Results), len(want))
	}
}

// TestServeZeroCostRequest: an experiment that plans no cells (table3) is
// served from the cheap path — admitted at clamp-floor cost, no
// simulations, empty results array, complete.
func TestServeZeroCostRequest(t *testing.T) {
	leakCheck(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, ts := newTestServer(t, ctx, nil)

	status, body, _ := postRun(t, ts.URL, RunRequest{Experiments: []string{"table3"}})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var resp RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Partial {
		t.Fatal("cell-free experiment reported partial")
	}
	if string(bytes.TrimSpace(resp.Results)) != "[]" {
		t.Fatalf("results = %s, want []", resp.Results)
	}
	if s.Runner().Runs() != 0 {
		t.Fatalf("%d simulations for a cell-free experiment", s.Runner().Runs())
	}
}

func TestServeRejectsUnknownExperiment(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, ts := newTestServer(t, ctx, nil)
	status, body, _ := postRun(t, ts.URL, RunRequest{Experiments: []string{"fig999"}})
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d", status)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != CodeBadRequest {
		t.Fatalf("code = %q", er.Code)
	}
	// The client must not burn retries on a permanent error.
	calls := 0
	probe := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "nope", 0)
	}))
	defer probe.Close()
	c := NewClient(probe.URL, 1)
	if _, err := c.Run(context.Background(), RunRequest{Experiments: []string{"x"}}); err == nil {
		t.Fatal("bad request reported success")
	}
	if calls != 1 {
		t.Fatalf("client retried a permanent error %d times", calls)
	}
}

// TestServeDeadlinePropagation: a request deadline expiring mid-run returns
// 200 with Partial set and the canceled experiments carrying the stable
// "canceled" code — the same schema as a complete response, minus the
// missing cells.
func TestServeDeadlinePropagation(t *testing.T) {
	leakCheck(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, ts := newTestServer(t, ctx, nil)

	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	ci := faults.NewCellInjector()
	ci.Script("omnetpp/tmcc/high", faults.CellSpec{Kind: faults.CellHang, Release: release})
	s.Runner().SetCellHook(ci.Hook)

	start := time.Now()
	status, body, _ := postRun(t, ts.URL, RunRequest{
		Experiments: []string{"fig4"},
		TimeoutMS:   400,
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("deadline did not bound the request: took %v", elapsed)
	}
	var resp RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Partial {
		t.Fatal("deadline-cut response not marked partial")
	}
	if got := resp.Experiments[0].Code; got != "canceled" {
		t.Fatalf("experiment code = %q, want canceled (err: %s)", got, resp.Experiments[0].Error)
	}
	// Results must still parse as the export schema (possibly empty).
	var raw []harness.RawResult
	if err := json.Unmarshal(resp.Results, &raw); err != nil {
		t.Fatalf("partial results not in export schema: %v", err)
	}
}

// TestServeBreakerLifecycle drives a (workload, design) class through
// closed -> open -> half-open -> closed over real requests, with the
// breaker clock injected so cooldowns need no sleeping. It runs with
// telemetry off and on: both feed from the runner's one settlement hook, so
// with telemetry on the panic counter must count exactly the failures that
// tripped the breaker, and the transition counter each state change.
func TestServeBreakerLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, tc := range []struct {
		name string
		tel  *Telemetry
	}{{"telemetry off", nil}, {"telemetry on", NewTelemetry()}} {
		t.Run(tc.name, func(t *testing.T) {
			leakCheck(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			clk := newFakeClock()
			s, ts := newTestServer(t, ctx, func(o *Options) {
				if tc.tel != nil {
					withTelemetry(tc.tel)(o)
				}
				o.Now = clk.Now
				o.Breaker = BreakerConfig{Threshold: 2, Cooldown: time.Second}
			})
			// Every tmcc attempt panics until the test heals the fault. An
			// attempt-counted script would be racy here: failed cells are
			// evicted in service mode, so the experiment body re-runs them
			// within the same request and would consume the scripted
			// failures nondeterministically.
			const class = "omnetpp/tmcc"
			var healedFault atomic.Bool
			ci := faults.NewCellInjector()
			ci.Script(class, faults.CellSpec{Kind: faults.CellPanic})
			s.Runner().SetCellHook(func(cellKey string) error {
				if healedFault.Load() {
					return nil
				}
				return ci.Hook(cellKey)
			})
			// transitions checks the telemetry transition counts into open,
			// half-open and closed.
			transitions := func(open, half, closed float64) {
				t.Helper()
				if tc.tel == nil {
					return
				}
				for to, want := range map[string]float64{"open": open, "half-open": half, "closed": closed} {
					if got := tc.tel.breakerTransitions.Value(class, to); got != want {
						t.Errorf("transitions to %s = %v, want %v", to, got, want)
					}
				}
			}

			status, body, _ := postRun(t, ts.URL, RunRequest{Experiments: []string{"fig4"}})
			if status != http.StatusOK {
				t.Fatalf("first request status = %d: %s", status, body)
			}
			var resp RunResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if !resp.Partial || resp.Experiments[0].Code != "panic" {
				t.Fatalf("first request: partial=%v code=%q", resp.Partial, resp.Experiments[0].Code)
			}
			if got := s.Breaker().State(class); got != "open" {
				t.Fatalf("class after two panics = %s, want open", got)
			}
			panics := ci.Attempts(class)
			if panics < 2 {
				t.Fatalf("%d panicked attempts, want at least the threshold of 2", panics)
			}
			if tc.tel != nil {
				if got := tc.tel.cellFailures.Value(class, "panic"); got != float64(panics) {
					t.Fatalf("cell failures{code=panic} = %v, want the %d panics the breaker saw", got, panics)
				}
			}
			transitions(1, 0, 0)

			// While open: refused with the stable code and Retry-After advice.
			status, body, hdr := postRun(t, ts.URL, RunRequest{Experiments: []string{"fig4"}})
			if status != http.StatusServiceUnavailable {
				t.Fatalf("open-breaker status = %d: %s", status, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatal(err)
			}
			if er.Code != CodeBreakerOpen {
				t.Fatalf("code = %q", er.Code)
			}
			if hdr.Get("Retry-After") == "" {
				t.Fatal("open-breaker rejection missing Retry-After")
			}

			// Cooldown elapses and the fault clears: the probe request runs
			// and heals the class.
			healedFault.Store(true)
			clk.Advance(1100 * time.Millisecond)
			status, body, _ = postRun(t, ts.URL, RunRequest{Experiments: []string{"fig4"}})
			if status != http.StatusOK {
				t.Fatalf("probe request status = %d: %s", status, body)
			}
			var healed RunResponse
			if err := json.Unmarshal(body, &healed); err != nil {
				t.Fatal(err)
			}
			if healed.Partial {
				t.Fatalf("healed probe request still partial: %+v", healed.Experiments)
			}
			if got := s.Breaker().State(class); got != "closed" {
				t.Fatalf("class after successful probe = %s, want closed", got)
			}
			transitions(1, 1, 1)
		})
	}
}

// TestServeMemoryPressure: degraded pressure sheds observability and marks
// responses; critical pressure refuses work with CodeOverloaded.
func TestServeMemoryPressure(t *testing.T) {
	leakCheck(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var usage atomic.Uint64
	s, ts := newTestServer(t, ctx, func(o *Options) {
		o.Memory = MemoryConfig{
			Limit:     1000,
			Interval:  time.Hour, // driven manually via Sample
			ReadUsage: func() uint64 { return usage.Load() },
		}
	})

	usage.Store(850)
	s.mem.Sample()
	status, body, _ := postRun(t, ts.URL, RunRequest{Experiments: []string{"table3"}})
	if status != http.StatusOK {
		t.Fatalf("degraded status = %d: %s", status, body)
	}
	var resp RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("degraded service did not mark the response")
	}

	usage.Store(990)
	s.mem.Sample()
	status, body, _ = postRun(t, ts.URL, RunRequest{Experiments: []string{"table3"}})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("critical status = %d: %s", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != CodeOverloaded {
		t.Fatalf("code = %q, want %q", er.Code, CodeOverloaded)
	}

	usage.Store(10)
	s.mem.Sample()
	status, body, _ = postRun(t, ts.URL, RunRequest{Experiments: []string{"table3"}})
	if status != http.StatusOK {
		t.Fatalf("recovered status = %d: %s", status, body)
	}
	var recovered RunResponse
	if err := json.Unmarshal(body, &recovered); err != nil {
		t.Fatal(err)
	}
	if recovered.Degraded {
		t.Fatal("recovered service still marks responses degraded")
	}
}

// TestServeDrainSequence: readiness flips before health, in-flight requests
// finish (force-abandoned past the grace), new requests are refused with
// CodeDraining, and the drain leaves no goroutines behind.
func TestServeDrainSequence(t *testing.T) {
	leakCheck(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, ts := newTestServer(t, ctx, nil)

	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	ci := faults.NewCellInjector()
	ci.Script("omnetpp/tmcc/high", faults.CellSpec{Kind: faults.CellHang, Release: release})
	s.Runner().SetCellHook(ci.Hook)

	if get(t, ts.URL+"/readyz") != http.StatusOK || get(t, ts.URL+"/healthz") != http.StatusOK {
		t.Fatal("server not live before drain")
	}

	// Park a request on the hung cell.
	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		st, body, _ := postRun(t, ts.URL, RunRequest{Experiments: []string{"fig4"}, TimeoutMS: 60_000})
		inflight <- result{st, body}
	}()
	waitFor(t, 10*time.Second, "hung cell to start", func() bool {
		return ci.Attempts("omnetpp/tmcc/high") >= 1
	})

	drained := make(chan bool, 1)
	go func() {
		dctx, dcancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
		defer dcancel()
		drained <- s.Drain(dctx)
	}()

	// Readiness flips immediately; health holds until the drain completes.
	waitFor(t, 5*time.Second, "readyz to flip", func() bool {
		return get(t, ts.URL+"/readyz") == http.StatusServiceUnavailable
	})
	if get(t, ts.URL+"/healthz") != http.StatusOK {
		t.Fatal("healthz flipped before in-flight requests finished")
	}
	st, body, _ := postRun(t, ts.URL, RunRequest{Experiments: []string{"table3"}})
	if st != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted work: %d", st)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != CodeDraining {
		t.Fatalf("code = %q, want %q", er.Code, CodeDraining)
	}

	// The hung request outlives the grace: its waits are force-abandoned
	// and it still gets a well-formed partial response.
	r := <-inflight
	if r.status != http.StatusOK {
		t.Fatalf("abandoned request status = %d: %s", r.status, r.body)
	}
	var resp RunResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Partial {
		t.Fatal("force-abandoned request not marked partial")
	}
	if clean := <-drained; clean {
		t.Fatal("drain reported clean despite the force-abandon")
	}
	waitFor(t, 5*time.Second, "healthz to flip", func() bool {
		return get(t, ts.URL+"/healthz") == http.StatusServiceUnavailable
	})
}

// TestClientHonorsRetryAfter: a 429 with Retry-After is retried after
// exactly the advertised delay (injected sleep), then succeeds.
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	probe := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			WriteError(w, http.StatusTooManyRequests, CodeQueueFull, "busy", 3*time.Second)
			return
		}
		writeJSON(w, http.StatusOK, RunResponse{Results: json.RawMessage("[]")})
	}))
	defer probe.Close()

	c := NewClient(probe.URL, 7)
	var slept []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	resp, err := c.Run(context.Background(), RunRequest{Experiments: []string{"table3"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp == nil || calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
	if len(slept) != 1 || slept[0] != 3*time.Second {
		t.Fatalf("slept %v, want exactly the advertised 3s", slept)
	}
}

// TestClientJitteredBackoffWithoutAdvice: codeless 5xx responses back off
// exponentially with jitter — every wait is positive, bounded by the cap,
// and not all equal (jitter actually applied).
func TestClientJitteredBackoffWithoutAdvice(t *testing.T) {
	probe := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusBadGateway)
	}))
	defer probe.Close()

	c := NewClient(probe.URL, 42)
	c.MaxAttempts = 5
	c.BaseBackoff = 100 * time.Millisecond
	c.MaxBackoff = time.Second
	var slept []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	_, err := c.Run(context.Background(), RunRequest{Experiments: []string{"x"}})
	if err == nil {
		t.Fatal("all-5xx endpoint reported success")
	}
	if len(slept) != 4 {
		t.Fatalf("%d backoffs for 5 attempts, want 4", len(slept))
	}
	caps := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond}
	allEqual := true
	for i, d := range slept {
		if d <= 0 || d > caps[i] {
			t.Fatalf("backoff %d = %v, want in (0, %v]", i, d, caps[i])
		}
		if d != slept[0] {
			allEqual = false
		}
	}
	if allEqual {
		t.Fatalf("no jitter across backoffs: %v", slept)
	}
}

// TestServeStats sanity-checks the /v1/stats and /v1/experiments surfaces.
func TestServeStats(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, ts := newTestServer(t, ctx, nil)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Draining || stats.Memory != "ok" {
		t.Fatalf("fresh server stats: %+v", stats)
	}

	lresp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var infos []ExperimentInfo
	if err := json.NewDecoder(lresp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(harness.Experiments()) {
		t.Fatalf("listing has %d experiments, registry %d", len(infos), len(harness.Experiments()))
	}
	for _, info := range infos {
		if info.Name == "" || info.Title == "" {
			t.Fatalf("blank listing entry: %+v", info)
		}
	}
}
