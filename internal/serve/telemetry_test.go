package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dylect/internal/faults"
	"dylect/internal/telemetry"
)

// withTelemetry arms the full observability layer on a test server.
func withTelemetry(tel *Telemetry) func(*Options) {
	return func(o *Options) {
		o.Telemetry = tel
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// postRunID is postRun with an inbound X-Request-ID.
func postRunID(t *testing.T, base, id string, req RunRequest) (int, []byte, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, base+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id != "" {
		hreq.Header.Set(telemetry.HeaderRequestID, id)
	}
	resp, err := http.DefaultClient.Do(hreq)
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

// TestServeRequestIDAndServerTiming: every /v1/run response echoes an
// inbound X-Request-ID (or mints one) and carries the span trace as a
// Server-Timing header — on success including the queue/run/export spans.
func TestServeRequestIDAndServerTiming(t *testing.T) {
	leakCheck(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, ts := newTestServer(t, ctx, withTelemetry(NewTelemetry()))

	status, body, hdr := postRunID(t, ts.URL, "probe-abc", RunRequest{Experiments: []string{"table3"}})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	if got := hdr.Get(telemetry.HeaderRequestID); got != "probe-abc" {
		t.Fatalf("X-Request-ID = %q, want echo of inbound probe-abc", got)
	}
	st := hdr.Get(telemetry.HeaderServerTiming)
	for _, span := range []string{"queue;dur=", "run;dur=", "export;dur=", "total;dur="} {
		if !strings.Contains(st, span) {
			t.Errorf("Server-Timing %q lacks %q", st, span)
		}
	}

	// No inbound ID: the server mints one in its own format.
	_, _, hdr = postRunID(t, ts.URL, "", RunRequest{Experiments: []string{"table3"}})
	if got := hdr.Get(telemetry.HeaderRequestID); !strings.HasPrefix(got, "r-") {
		t.Fatalf("minted X-Request-ID = %q, want r- prefix", got)
	}

	// A hostile inbound ID (header injection attempt) is discarded, not
	// echoed.
	_, _, hdr = postRunID(t, ts.URL, `bad"id`, RunRequest{Experiments: []string{"table3"}})
	if got := hdr.Get(telemetry.HeaderRequestID); strings.Contains(got, `"`) || !strings.HasPrefix(got, "r-") {
		t.Fatalf("unsafe inbound ID echoed back: %q", got)
	}
}

// TestServeServerTimingOnRejections: 429 and 503 rejections carry the trace
// too — a client can see how long it queued before being turned away.
func TestServeServerTimingOnRejections(t *testing.T) {
	leakCheck(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var usage atomic.Uint64
	s, ts := newTestServer(t, ctx, func(o *Options) {
		withTelemetry(NewTelemetry())(o)
		o.PerClient = 1
		o.Memory = MemoryConfig{
			Limit:     1000,
			Interval:  time.Hour, // driven manually via Sample
			ReadUsage: func() uint64 { return usage.Load() },
		}
	})

	// 429: park one request on a hung cell, then trip the per-client limit.
	release := make(chan struct{})
	ci := faults.NewCellInjector()
	ci.Script("omnetpp/tmcc/high", faults.CellSpec{Kind: faults.CellHang, Release: release})
	s.Runner().SetCellHook(ci.Hook)
	done := make(chan struct{})
	go func() {
		defer close(done)
		postRun(t, ts.URL, RunRequest{Experiments: []string{"fig4"}, Client: "alice", TimeoutMS: 60_000})
	}()
	t.Cleanup(func() { close(release); <-done })
	waitFor(t, 10*time.Second, "hung cell to start", func() bool {
		return ci.Attempts("omnetpp/tmcc/high") >= 1
	})
	status, _, hdr := postRunID(t, ts.URL, "", RunRequest{Experiments: []string{"table3"}, Client: "alice"})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", status)
	}
	if st := hdr.Get(telemetry.HeaderServerTiming); !strings.Contains(st, "queue;dur=") || !strings.Contains(st, "total;dur=") {
		t.Errorf("429 Server-Timing = %q, want queue and total spans", st)
	}
	if hdr.Get(telemetry.HeaderRequestID) == "" {
		t.Error("429 response lacks X-Request-ID")
	}

	// 503: critical memory pressure rejects before admission; the trace
	// still carries the total span.
	usage.Store(990)
	s.mem.Sample()
	status, _, hdr = postRunID(t, ts.URL, "", RunRequest{Experiments: []string{"table3"}, Client: "bob"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	if st := hdr.Get(telemetry.HeaderServerTiming); !strings.Contains(st, "total;dur=") {
		t.Errorf("503 Server-Timing = %q, want total span", st)
	}
	if hdr.Get(telemetry.HeaderRequestID) == "" {
		t.Error("503 response lacks X-Request-ID")
	}
}

// TestClientReusesRequestIDAcrossRetries: one logical client call keeps one
// X-Request-ID across every retry attempt, so the server's log groups the
// attempts, and the echoed ID surfaces on the response.
func TestClientReusesRequestIDAcrossRetries(t *testing.T) {
	var ids []string // attempts are strictly sequential: no lock needed
	var calls atomic.Int32
	probe := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(telemetry.HeaderRequestID)
		ids = append(ids, id)
		w.Header().Set(telemetry.HeaderRequestID, id)
		if calls.Add(1) < 3 {
			WriteError(w, http.StatusTooManyRequests, CodeQueueFull, "busy", 0)
			return
		}
		writeJSON(w, http.StatusOK, RunResponse{Results: json.RawMessage("[]")})
	}))
	defer probe.Close()

	c := NewClient(probe.URL, 1)
	c.sleep = func(ctx context.Context, d time.Duration) error { return nil }
	resp, err := c.Run(context.Background(), RunRequest{Experiments: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("attempts = %d, want 3", len(ids))
	}
	if ids[0] == "" || !strings.HasPrefix(ids[0], "r-") {
		t.Fatalf("first attempt ID = %q, want generated r- ID", ids[0])
	}
	if ids[1] != ids[0] || ids[2] != ids[0] {
		t.Fatalf("retries changed the request ID: %v", ids)
	}
	if resp.RequestID != ids[0] {
		t.Fatalf("resp.RequestID = %q, want %q", resp.RequestID, ids[0])
	}
}

// telemetryFamilies is every family the service registers; a scrape must
// name all of them even before traffic.
var telemetryFamilies = []string{
	"dylect_breaker_open_classes",
	"dylect_breaker_transitions_total",
	"dylect_cell_failures_total",
	"dylect_cell_seconds",
	"dylect_cells_total",
	"dylect_memory_level",
	"dylect_queue_cost",
	"dylect_queue_depth",
	"dylect_queue_wait_seconds",
	"dylect_request_seconds",
	"dylect_requests_total",
	"dylect_running_cost",
	"dylect_store_bytes",
	"dylect_store_ops_total",
	"dylect_store_quarantines_total",
	"dylect_store_records",
}

// TestServeMetricsEndpoint: /metrics renders valid exposition text (the
// strict parser is the oracle), names every registered family, and counts
// the traffic the test just generated.
func TestServeMetricsEndpoint(t *testing.T) {
	leakCheck(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, ts := newTestServer(t, ctx, withTelemetry(NewTelemetry()))

	if st, _, _ := postRun(t, ts.URL, RunRequest{Experiments: []string{"table3"}}); st != http.StatusOK {
		t.Fatalf("seed request status = %d", st)
	}
	if st, _, _ := postRun(t, ts.URL, RunRequest{Experiments: []string{"fig999"}}); st != http.StatusBadRequest {
		t.Fatalf("bad request status = %d", st)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseExposition(data)
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, data)
	}
	for _, name := range telemetryFamilies {
		if telemetry.FindFamily(fams, name) == nil {
			t.Errorf("scrape lacks family %s", name)
		}
	}
	req := telemetry.FindFamily(fams, "dylect_requests_total")
	if got := req.Sum(map[string]string{"code": "ok"}); got != 1 {
		t.Errorf(`requests{code="ok"} = %v, want 1`, got)
	}
	if got := req.Sum(map[string]string{"code": "bad_request"}); got != 1 {
		t.Errorf(`requests{code="bad_request"} = %v, want 1`, got)
	}
	if got := telemetry.FindFamily(fams, "dylect_request_seconds").Sum(nil); got != 2 {
		t.Errorf("request_seconds count = %v, want 2", got)
	}
	// Only the admitted request reaches the queue-wait histogram.
	if got := telemetry.FindFamily(fams, "dylect_queue_wait_seconds").Sum(nil); got != 1 {
		t.Errorf("queue_wait count = %v, want 1", got)
	}
}

// TestServeMetricsAbsentWithoutTelemetry: a server built without a
// Telemetry does not even route /metrics.
func TestServeMetricsAbsentWithoutTelemetry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, ts := newTestServer(t, ctx, nil)
	if st := get(t, ts.URL+"/metrics"); st != http.StatusNotFound {
		t.Fatalf("/metrics without telemetry = %d, want 404", st)
	}
}

// TestServeTelemetryByteIdentical is the tentpole's acceptance proof: with
// the full telemetry layer armed — instruments, tracing, logging — the
// exported results and metrics artifacts are byte-identical to a bare
// server's, at one job and at eight. Observation cannot touch results.
func TestServeTelemetryByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	leakCheck(t)
	for _, jobs := range []int{1, 8} {
		var exports, metricsOut [2][]byte
		for i, arm := range []func(*Options){nil, withTelemetry(NewTelemetry())} {
			ctx, cancel := context.WithCancel(context.Background())
			s, ts := newTestServer(t, ctx, func(o *Options) {
				o.Jobs = jobs
				if arm != nil {
					arm(o)
				}
			})
			c := NewClient(ts.URL, 1)
			resp, err := c.Run(context.Background(), RunRequest{Experiments: []string{"fig4"}})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Partial {
				t.Fatalf("jobs=%d telemetry=%v: partial response", jobs, arm != nil)
			}
			exports[i] = resp.Results
			nd, err := s.Runner().ExportMetricsNDJSON()
			if err != nil {
				t.Fatal(err)
			}
			metricsOut[i] = nd
			cancel()
		}
		if !bytes.Equal(exports[0], exports[1]) {
			t.Errorf("jobs=%d: exported results differ with telemetry on (%d bytes) vs off (%d bytes)",
				jobs, len(exports[1]), len(exports[0]))
		}
		if !bytes.Equal(metricsOut[0], metricsOut[1]) {
			t.Errorf("jobs=%d: metrics NDJSON differs with telemetry on vs off", jobs)
		}
	}
}
