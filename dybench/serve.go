package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dylect/internal/harness"
	"dylect/internal/serve"
)

// serveStack is an in-process serve.Server on a loopback listener, booted the
// way dylect-served boots one: telemetry armed, an info-level logger, and a
// checkpoint store attached.
type serveStack struct {
	cp     *harness.Checkpoint
	ownCP  bool
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
	stop   context.CancelFunc
}

// bootServe starts a server over cfg. With shared nil it opens its own store
// in dir; mount, when set, adds handlers (the fabric worker endpoints).
func bootServe(cfg harness.Config, dir string, shared *harness.Checkpoint, mount func(*http.ServeMux, *serveStack)) (*serveStack, error) {
	st := &serveStack{cp: shared}
	tel := serve.NewTelemetry()
	if shared == nil {
		cp, err := harness.OpenCheckpointStore(dir, cfg, harness.StoreOptions{Log: io.Discard, Observer: tel.StoreObserver()})
		if err != nil {
			return nil, err
		}
		st.cp, st.ownCP = cp, true
	}
	st.srv = serve.New(serve.Options{
		Config:         cfg,
		Checkpoint:     st.cp,
		Jobs:           2,
		CellTimeout:    2 * time.Minute,
		Retries:        2,
		RetryBackoff:   100 * time.Millisecond,
		Breaker:        serve.BreakerConfig{Threshold: 3, Cooldown: 5 * time.Second},
		DefaultTimeout: 2 * time.Minute,
		MaxTimeout:     10 * time.Minute,
		Telemetry:      tel,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if st.ownCP {
			st.cp.Close()
		}
		return nil, err
	}
	var sctx context.Context
	sctx, st.stop = context.WithCancel(context.Background())
	st.srv.Start(sctx)
	mux := http.NewServeMux()
	mux.Handle("/", st.srv.Handler())
	if mount != nil {
		mount(mux, st)
	}
	st.hs = &http.Server{Handler: mux}
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	st.url = "http://" + ln.Addr().String()
	return st, nil
}

// warm simulates (or loads from the store) every cell of exps into the
// server's shared runner.
func (st *serveStack) warm(exps []harness.Experiment) error {
	_, err := harness.RunExperiments(st.srv.Runner(), exps, harness.ExecOptions{Jobs: 2})
	return err
}

// close drains the server, stops its listener and waits for it.
func (st *serveStack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st.srv.Drain(ctx)
	_ = st.hs.Shutdown(ctx) // a drained server has no requests left to lose
	<-st.served
	st.stop()
	if st.ownCP {
		st.cp.Close()
	}
}

// serveWarm is two closed-loop clients sending one fixed request to a
// memo-warm server. Traced runs measure the serve layer with a short run of
// it.
type serveWarm struct {
	st    *serveStack
	names []string
	want  [sha256.Size]byte // sha256 of ExportJSONFor of the request's experiments
	// Clients count non-200 responses and response body bytes.
	rejections, respBytes, responses atomic.Int64
	seed                             int64
	log                              io.Writer
}

// newServeWarm boots a server over cfg, simulates every experiment of exps
// once, checks the export against pinned, and takes the expected results of
// a request for exps.
func newServeWarm(o opts, cfg harness.Config, exps []harness.Experiment, pinned string) (*serveWarm, error) {
	dir, err := os.MkdirTemp(o.work, "serve-")
	if err != nil {
		return nil, err
	}
	st, err := bootServe(cfg, dir, nil, nil)
	if err != nil {
		return nil, err
	}
	s := &serveWarm{st: st, seed: o.seed, log: o.log}
	if err := s.prepare(exps, pinned); err != nil {
		st.close()
		return nil, err
	}
	return s, nil
}

func (s *serveWarm) prepare(exps []harness.Experiment, pinned string) error {
	if err := s.st.warm(exps); err != nil {
		return err
	}
	r := s.st.srv.Runner()
	export, err := r.ExportJSON()
	if err != nil {
		return err
	}
	if d := digest(export); d != pinned {
		return fmt.Errorf("server export %s differs from the pinned %s", d, pinned)
	}
	want, err := r.ExportJSONFor(exps)
	if err != nil {
		return err
	}
	s.want = sha256.Sum256(want)
	for _, e := range exps {
		s.names = append(s.names, e.Name)
	}
	return nil
}

// segment runs two closed-loop clients until d has elapsed. Each response's
// results must equal ExportJSONFor of the same experiments.
func (s *serveWarm) segment(ctx context.Context, d time.Duration, spans *spanLog) (tally, error) {
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	var total tally
	var wg sync.WaitGroup
	for ci := 0; ci < 2; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			out := s.client(ctx, ci, deadline, spans)
			mu.Lock()
			total.attempted += out.attempted
			total.failed += out.failed
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	return total, ctx.Err()
}

func (s *serveWarm) client(ctx context.Context, ci int, deadline time.Time, spans *spanLog) tally {
	base := &http.Transport{MaxIdleConnsPerHost: 1}
	defer base.CloseIdleConnections()
	tt := &timingTransport{base: base}
	c := serve.NewClient(s.st.url, s.seed*2+int64(ci))
	c.HTTP = &http.Client{Transport: tt}
	name := fmt.Sprintf("bench-%d", ci)
	var out tally
	for time.Now().Before(deadline) && ctx.Err() == nil {
		op := spans.newOp()
		t0 := time.Now()
		resp, err := c.Run(ctx, serve.RunRequest{Experiments: s.names, Client: name})
		lat := time.Since(t0)
		ok := err == nil && !resp.Partial && sha256.Sum256(resp.Results) == s.want
		if !ok {
			if err == nil {
				err = errors.New("results differ from ExportJSONFor")
			}
			fmt.Fprintf(s.log, "dybench: request %v failed: %v\n", s.names, err)
		}
		out.pass(1, 0, ok)
		spans.add(op, 0, "client.request", t0, lat)
		total := tt.record(spans, op, t0)
		spans.add(op, op, "serve.transport", t0, lat-total)
		if tt.body != nil {
			s.respBytes.Add(tt.body.n)
			s.responses.Add(1)
		}
		s.rejections.Add(int64(tt.rejections))
		tt.rejections, tt.body = 0, nil
	}
	return out
}

// timingTransport captures, per client, the Server-Timing header, the
// response size and the rejections of the last request. One client uses it
// from one goroutine at a time.
type timingTransport struct {
	base       http.RoundTripper
	timing     string
	body       *countingBody
	rejections int
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if resp.StatusCode != http.StatusOK {
		t.rejections++
	}
	t.timing = resp.Header.Get("Server-Timing")
	t.body = &countingBody{ReadCloser: resp.Body}
	resp.Body = t.body
	return resp, nil
}

// record adds the server-side phases of the last response as child spans of
// op and returns the server's total.
func (t *timingTransport) record(spans *spanLog, op int64, start time.Time) time.Duration {
	var total time.Duration
	for _, part := range strings.Split(t.timing, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		ms, err := strconv.ParseFloat(dur, 64)
		if err != nil {
			continue
		}
		d := time.Duration(ms * float64(time.Millisecond))
		spans.add(op, op, "serve."+name, start, d)
		if name == "total" {
			total = d
		}
	}
	return total
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

// serveLayers turns the traced requests' spans and counts into the serve
// layer metrics.
func (s *serveWarm) serveLayers(spans *spanLog, m metricSet) {
	for _, phase := range []string{"queue", "run", "export", "total", "transport"} {
		m.set("serve."+phase+"_ms", mean(spans.durations("serve."+phase)), "ms")
	}
	kb := 0.0
	if n := s.responses.Load(); n > 0 {
		kb = float64(s.respBytes.Load()) / float64(n) / 1024
	}
	m.set("serve.response_kb", kb, "KiB")
	m.set("serve.rejections", float64(s.rejections.Load()), "count")
}

func (s *serveWarm) close() { s.st.close() }

// miniExperiments is the small experiment set the short layer runs keep warm.
var miniExperiments = []string{"fig17"}

// miniServe measures the serve layer on a workload that does not exercise
// it: two clients sending a request for miniExperiments for one second.
func miniServe(ctx context.Context, o opts, m metricSet) error {
	s, err := newServeWarm(o, pinnedConfig(), experimentsNamed(miniExperiments), pinnedMini)
	if err != nil {
		return err
	}
	defer s.close()
	spans := newSpanLog()
	out, err := s.segment(ctx, time.Second, spans)
	if err != nil {
		return err
	}
	if out.failed > 0 {
		return fmt.Errorf("%d requests failed", out.failed)
	}
	s.serveLayers(spans, m)
	return nil
}
