package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
	"time"
)

// bootCLI launches one servedCLI-based subcommand on an ephemeral port and
// waits for its address handshake.
func bootCLI(t *testing.T, ctx context.Context, run func(ctx context.Context, errOut *syncBuf) int) (addr string, errOut *syncBuf, exit chan int) {
	t.Helper()
	errOut = &syncBuf{}
	exit = make(chan int, 1)
	go func() { exit <- run(ctx, errOut) }()
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := listenRE.FindStringSubmatch(errOut.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no address handshake; stderr:\n%s", errOut.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return addr, errOut, exit
}

// TestClusterCLIRoundTrip boots one worker and one coordinator through
// their real subcommands, joins the worker by announcement (not -workers),
// sweeps an experiment through the cluster, and checks the response matches
// a single-process server byte for byte. Both processes must then drain
// cleanly on context cancel.
func TestClusterCLIRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	coordAddr, coordErr, coordExit := bootCLI(t, ctx, func(ctx context.Context, e *syncBuf) int {
		var out bytes.Buffer
		return coordinatorCLI(ctx, []string{"-addr", "127.0.0.1:0", "-quick", "-workloads", "omnetpp",
			"-scale", "64", "-warmup", "20000", "-window", "15"}, &out, e)
	})
	_, workerErr, workerExit := bootCLI(t, ctx, func(ctx context.Context, e *syncBuf) int {
		var out bytes.Buffer
		return workerCLI(ctx, []string{"-addr", "127.0.0.1:0", "-quick", "-workloads", "omnetpp",
			"-scale", "64", "-warmup", "20000", "-window", "15",
			"-coordinator", "http://" + coordAddr}, &out, e)
	})
	if !strings.Contains(workerErr.String(), "joined http://"+coordAddr) {
		t.Fatalf("worker did not announce its join; stderr:\n%s", workerErr.String())
	}

	var clusterOut, cliErr bytes.Buffer
	code := clientCLI(context.Background(),
		[]string{"-addr", "http://" + coordAddr, "-exp", "fig17", "-json"}, &clusterOut, &cliErr)
	if code != 0 {
		t.Fatalf("client exit = %d; stderr:\n%s\ncoordinator:\n%s\nworker:\n%s",
			code, cliErr.String(), coordErr.String(), workerErr.String())
	}

	// Single-process reference with the identical config flags.
	refAddr, refErr, refExit := bootCLI(t, ctx, func(ctx context.Context, e *syncBuf) int {
		var out bytes.Buffer
		return serverCLI(ctx, []string{"-addr", "127.0.0.1:0", "-quick", "-workloads", "omnetpp",
			"-scale", "64", "-warmup", "20000", "-window", "15"}, &out, e)
	})
	var refOut, refCliErr bytes.Buffer
	if code := clientCLI(context.Background(),
		[]string{"-addr", "http://" + refAddr, "-exp", "fig17", "-json"}, &refOut, &refCliErr); code != 0 {
		t.Fatalf("reference client exit = %d; stderr:\n%s", code, refCliErr.String())
	}
	if !bytes.Equal(clusterOut.Bytes(), refOut.Bytes()) {
		t.Errorf("cluster response differs from single-process response: %d vs %d bytes",
			clusterOut.Len(), refOut.Len())
	}

	cancel()
	for name, ch := range map[string]chan int{"coordinator": coordExit, "worker": workerExit, "reference": refExit} {
		select {
		case code := <-ch:
			if code != 0 {
				t.Errorf("%s exit = %d", name, code)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s did not exit after cancel", name)
		}
	}
	for _, sb := range []*syncBuf{coordErr, workerErr, refErr} {
		if !strings.Contains(sb.String(), "drained cleanly") {
			t.Errorf("drain was not clean; stderr:\n%s", sb.String())
		}
	}
}

// TestWorkerCLIBadChaosSpec: a malformed -chaos script must fail boot with
// exit 1, not arm a half-parsed injector.
func TestWorkerCLIBadChaosSpec(t *testing.T) {
	var out, errOut bytes.Buffer
	code := workerCLI(context.Background(),
		[]string{"-addr", "127.0.0.1:0", "-quick", "-chaos", "meteor-strike"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "chaos spec") {
		t.Fatalf("error does not name the bad spec:\n%s", errOut.String())
	}
}

// TestParseChaosSpecs covers the accepted grammar.
func TestParseChaosSpecs(t *testing.T) {
	if _, err := parseChaos("hang:omnetpp,panic:fig4:2,transient::1"); err != nil {
		t.Fatalf("valid script rejected: %v", err)
	}
	for _, bad := range []string{"hang", "warp:x", "panic:x:many", "panic:x:-1"} {
		if _, err := parseChaos(bad); err == nil {
			t.Errorf("script %q accepted", bad)
		}
	}
}

// TestFabricCLIRejectsBadWorkerURLs: -workers items are trimmed and each
// must be an absolute http(s) URL with a host, as must a non-empty
// -advertise; a bad one exits 2 naming it, before anything boots. An empty
// -advertise still means http://<listen addr>.
func TestFabricCLIRejectsBadWorkerURLs(t *testing.T) {
	got, err := parseWorkers(" http://a:1 ,https://b ")
	if err != nil || len(got) != 2 || got[0] != "http://a:1" || got[1] != "https://b" {
		t.Fatalf("parseWorkers = %q, %v", got, err)
	}
	if got, err := parseWorkers(" "); err != nil || got != nil {
		t.Fatalf("empty -workers = %q, %v; want no seeds", got, err)
	}
	for _, tc := range []struct {
		run  func(context.Context, []string, io.Writer, io.Writer) int
		args []string
		bad  string
	}{
		{coordinatorCLI, []string{"-workers", "http://a:1, ::"}, `"::"`},
		{coordinatorCLI, []string{"-workers", "http://a:1,,http://b:2"}, `""`},
		{coordinatorCLI, []string{"-workers", "not a url"}, `"not a url"`},
		{workerCLI, []string{"-advertise", "ftp://x"}, `"ftp://x"`},
	} {
		var out, errOut bytes.Buffer
		if code := tc.run(context.Background(), append([]string{"-addr", "127.0.0.1:0"}, tc.args...), &out, &errOut); code != 2 {
			t.Errorf("%q: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(out.String()+errOut.String(), "worker URL "+tc.bad) {
			t.Errorf("%q: output does not name %s:\n%s%s", tc.args, tc.bad, out.String(), errOut.String())
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coordAddr, _, coordExit := bootCLI(t, ctx, func(ctx context.Context, e *syncBuf) int {
		return coordinatorCLI(ctx, []string{"-addr", "127.0.0.1:0", "-quick"}, io.Discard, e)
	})
	workerAddr, workerErr, workerExit := bootCLI(t, ctx, func(ctx context.Context, e *syncBuf) int {
		return workerCLI(ctx, []string{"-addr", "127.0.0.1:0", "-quick", "-advertise", "",
			"-coordinator", "http://" + coordAddr}, io.Discard, e)
	})
	if want := "joined http://" + coordAddr + " as http://" + workerAddr; !strings.Contains(workerErr.String(), want) {
		t.Errorf("empty -advertise: stderr lacks %q:\n%s", want, workerErr.String())
	}
	cancel()
	for name, ch := range map[string]chan int{"coordinator": coordExit, "worker": workerExit} {
		select {
		case code := <-ch:
			if code != 0 {
				t.Errorf("%s exit = %d", name, code)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s did not exit after cancel", name)
		}
	}
}
