package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuf is a mutex-guarded buffer: serverCLI writes to it from the test's
// server goroutine while the test polls it for the address handshake.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`dylect-served listening on (\S+)`)

// TestServerClientRoundTrip boots the server CLI on an ephemeral port, runs
// the client subcommand against it, then cancels the server context (the
// SIGINT/SIGTERM path) and expects a clean drain and exit code 0.
func TestServerClientRoundTrip(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var srvOut, srvErr syncBuf
	exit := make(chan int, 1)
	go func() {
		exit <- serverCLI(ctx, []string{"-addr", "127.0.0.1:0", "-quick"}, &srvOut, &srvErr)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := listenRE.FindStringSubmatch(srvErr.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never printed its address; stderr:\n%s", srvErr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// table3 plans no simulations, so the round trip is fast even here.
	var cliOut, cliErr bytes.Buffer
	code := clientCLI(context.Background(),
		[]string{"-addr", "http://" + addr, "-exp", "table3", "-client", "cli-test"},
		&cliOut, &cliErr)
	if code != 0 {
		t.Fatalf("client exit = %d; stderr:\n%s", code, cliErr.String())
	}
	if !strings.Contains(cliOut.String(), "Table 3") {
		t.Fatalf("client output missing rendered table:\n%s", cliOut.String())
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("server exit = %d; stderr:\n%s", code, srvErr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("server did not exit after cancel; stderr:\n%s", srvErr.String())
	}
	if !strings.Contains(srvErr.String(), "drained cleanly") {
		t.Fatalf("idle drain was not clean; stderr:\n%s", srvErr.String())
	}
}

func TestServerCLIBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := serverCLI(context.Background(), []string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag exit = %d, want 2", code)
	}
}

func TestClientCLIRequiresExperiments(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := clientCLI(context.Background(), nil, &out, &errOut); code != 2 {
		t.Fatalf("missing -exp exit = %d, want 2", code)
	}
	if !strings.Contains(out.String(), "-exp is required") {
		t.Fatalf("usage hint missing:\n%s", out.String())
	}
}

// TestTopDashboard boots the server CLI with JSON logging, generates one
// request, and drives the `top` subcommand through its three modes: -raw
// (fetch + validate + dump), -scrape (offline render of a saved scrape),
// and -once (live single frame).
func TestTopDashboard(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var srvOut, srvErr syncBuf
	exit := make(chan int, 1)
	go func() {
		exit <- serverCLI(ctx, []string{"-addr", "127.0.0.1:0", "-quick", "-log-json"}, &srvOut, &srvErr)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-exit:
		case <-time.After(15 * time.Second):
			t.Errorf("server did not exit; stderr:\n%s", srvErr.String())
		}
	})

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := listenRE.FindStringSubmatch(srvErr.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never printed its address; stderr:\n%s", srvErr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	base := "http://" + addr

	var cliOut, cliErr bytes.Buffer
	if code := clientCLI(context.Background(), []string{"-addr", base, "-exp", "table3"}, &cliOut, &cliErr); code != 0 {
		t.Fatalf("client exit = %d; stderr:\n%s", code, cliErr.String())
	}

	// -raw validates the scrape with the strict parser before printing it.
	var raw, rawErr bytes.Buffer
	if code := topCLI(ctx, []string{"-addr", base, "-raw"}, &raw, &rawErr); code != 0 {
		t.Fatalf("top -raw exit = %d; stderr:\n%s", code, rawErr.String())
	}
	if !strings.Contains(raw.String(), "# TYPE dylect_requests_total counter") {
		t.Fatalf("raw scrape missing requests family:\n%s", raw.String())
	}

	// -scrape renders a saved scrape offline.
	scrapePath := t.TempDir() + "/scrape.txt"
	if err := os.WriteFile(scrapePath, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var frame, frameErr bytes.Buffer
	if code := topCLI(ctx, []string{"-scrape", scrapePath}, &frame, &frameErr); code != 0 {
		t.Fatalf("top -scrape exit = %d; stderr:\n%s", code, frameErr.String())
	}
	for _, want := range []string{"dylect-served top", "requests by outcome", "ok", "memory    ok"} {
		if !strings.Contains(frame.String(), want) {
			t.Errorf("frame missing %q:\n%s", want, frame.String())
		}
	}

	// -once renders a live frame.
	var once, onceErr bytes.Buffer
	if code := topCLI(ctx, []string{"-addr", base, "-once"}, &once, &onceErr); code != 0 {
		t.Fatalf("top -once exit = %d; stderr:\n%s", code, onceErr.String())
	}
	if !strings.Contains(once.String(), "requests by outcome") {
		t.Errorf("live frame missing chart:\n%s", once.String())
	}

	// The structured log recorded the request as JSON with its span fields.
	if !strings.Contains(srvErr.String(), `"code":"ok"`) || !strings.Contains(srvErr.String(), `"span_queue_ms"`) {
		t.Errorf("JSON request log missing:\n%s", srvErr.String())
	}
}

// TestServeCancelWinsOverServeError readies both of the server's wake-ups
// before it waits — the listener has failed and the context is canceled —
// and requires cancellation to win: a drain, "drained cleanly" and exit 0,
// on every run (the stress step repeats it 200 times).
func TestServeCancelWinsOverServeError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testHookServing = func(ln net.Listener, serveErr <-chan error) {
		ln.Close()
		for len(serveErr) == 0 {
			runtime.Gosched()
		}
		cancel()
	}
	defer func() { testHookServing = nil }()
	var out, errOut syncBuf
	if code := serverCLI(ctx, []string{"-addr", "127.0.0.1:0", "-quick"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "drained cleanly") {
		t.Fatalf("no clean drain; stderr:\n%s", errOut.String())
	}
}
