package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof-addr serves the default mux's profile routes
	"strings"
	"time"

	"dylect/internal/engine"
	"dylect/internal/harness"
	"dylect/internal/serve"
)

// bootState is everything the shared boot path builds before serving, handed
// to a mode extension (worker / coordinator) so it can mount handlers, wire
// the fabric, and hook the drain sequence.
type bootState struct {
	cfg    harness.Config
	cp     *harness.Checkpoint
	tel    *serve.Telemetry
	srv    *serve.Server
	logger *slog.Logger
	errOut io.Writer
	// mux is the process mux: "/" routes to the serve.Server handler; modes
	// add fabric endpoints beside it.
	mux *http.ServeMux
	// listenAddr is the bound listener address (the kernel's pick under :0).
	listenAddr string
	// preDrain (announce departure) runs as soon as shutdown starts;
	// postDrain (drain sidecar work, stop loops) runs after the server
	// drained. Either may be nil.
	preDrain  func()
	postDrain func(ctx context.Context)
}

// modeExt customizes the shared server boot for a subcommand: extra flags,
// then a configure step that runs with the listener bound but before the
// readiness line prints.
type modeExt struct {
	name      string
	addFlags  func(fs *flag.FlagSet)
	configure func(ctx context.Context, b *bootState) error
}

// testHookServing, when set, runs once the HTTP server has started and
// before the process waits for cancellation or a server failure.
var testHookServing func(ln net.Listener, serveErr <-chan error)

// serverCLI runs the service until ctx is canceled, then drains and exits.
// It returns a process exit code; main stays a thin shell so the whole
// command is testable.
func serverCLI(ctx context.Context, args []string, out, errOut io.Writer) int {
	return servedCLI(ctx, args, out, errOut, nil)
}

// servedCLI is the shared boot/serve/drain path behind the server, worker,
// and coordinator subcommands.
func servedCLI(ctx context.Context, args []string, out, errOut io.Writer, ext *modeExt) int {
	name := "dylect-served"
	if ext != nil {
		name += " " + ext.name
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr      = fs.String("addr", "127.0.0.1:8344", "listen address (host:port; :0 picks a port)")
		quick     = fs.Bool("quick", false, "fast config: 4 workloads, shorter windows")
		workloads = fs.String("workloads", "", "comma-separated workload subset")
		scale     = fs.Uint64("scale", 0, "footprint scale divisor override")
		warmup    = fs.Uint64("warmup", 0, "warmup accesses per core override")
		windowUS  = fs.Uint64("window", 0, "timed window in microseconds override")
		seed      = fs.Int64("seed", 0, "workload generator seed")
		audit     = fs.Bool("audit", false, "walk translator-state invariants during every run")
		jobs      = fs.Int("jobs", 0, "max concurrent simulations (0 = GOMAXPROCS)")

		cellTO  = fs.Duration("cell-timeout", 2*time.Minute, "per-cell watchdog (0 = off)")
		retries = fs.Int("retries", 2, "retry a cell's transient failures up to this many times")
		backoff = fs.Duration("retry-backoff", 100*time.Millisecond, "base backoff between cell retries")

		maxCost   = fs.Int("max-cost", 0, "admission: concurrent fresh-simulation budget (0 = default)")
		maxQueue  = fs.Int("max-queue", 0, "admission: queued requests before shedding (0 = default)")
		perClient = fs.Int("per-client", 0, "admission: per-client in-system request cap (0 = default)")

		brkThreshold = fs.Int("breaker-threshold", 3, "consecutive hard cell failures that open a (workload, design) class")
		brkCooldown  = fs.Duration("breaker-cooldown", 5*time.Second, "initial breaker cooldown (doubles per failed probe)")

		memLimitMB = fs.Int64("mem-limit", 0, "soft memory limit in MiB: sets the runtime limit and arms pressure degradation (0 = off)")

		defaultTO  = fs.Duration("default-timeout", 2*time.Minute, "request deadline when the request names none")
		maxTO      = fs.Duration("max-timeout", 10*time.Minute, "largest request deadline honored")
		drainGrace = fs.Duration("drain-grace", 30*time.Second, "how long a drain waits for in-flight requests before abandoning their waits")

		metricsSamples = fs.Int("metrics-samples", 0, "interval samples per cell (shed to 0 under memory pressure)")

		storeDir      = fs.String("store", "", "durable result store directory: completed cells persist, verify on load, and survive restarts")
		storeBudgetMB = fs.Int64("store-budget-mb", 0, "store byte budget in MiB; least-recently-used records evict beyond it (0 = unbounded)")

		logJSON   = fs.Bool("log-json", false, "structured request log as JSON lines on stderr (default: text)")
		logLevel  = fs.String("log-level", "info", "request log level: debug, info, warn, error")
		pprofAddr = fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off; keep it loopback)")
	)
	if ext != nil && ext.addFlags != nil {
		ext.addFlags(fs)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(errOut, "log-level: %v\n", err)
		return 2
	}
	hopts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(errOut, hopts)
	} else {
		handler = slog.NewTextHandler(errOut, hopts)
	}
	logger := slog.New(handler)

	cfg := harness.Full()
	if *quick {
		cfg = harness.Quick()
	}
	if *workloads != "" {
		cfg.Workloads = strings.Split(*workloads, ",")
	}
	if *scale != 0 {
		cfg.ScaleDivisor = *scale
	}
	if *warmup != 0 {
		cfg.WarmupAccesses = *warmup
	}
	if *windowUS != 0 {
		cfg.Window = engine.Time(*windowUS) * engine.Microsecond
	}
	cfg.Seed = *seed
	cfg.Audit = *audit
	cfg.MetricsSamples = *metricsSamples

	tel := serve.NewTelemetry()

	var cp *harness.Checkpoint
	if *storeDir != "" {
		var err error
		cp, err = harness.OpenCheckpointStore(*storeDir, cfg, harness.StoreOptions{
			MaxBytes: *storeBudgetMB << 20,
			Log:      errOut,
			Observer: tel.StoreObserver(),
		})
		if err != nil {
			fmt.Fprintf(errOut, "store: %v\n", err)
			return 1
		}
		defer cp.Close()
		st := cp.StoreStats()
		fmt.Fprintf(errOut, "store %s: %d records verified, %d quarantined at open\n",
			*storeDir, st.OpenVerified, st.OpenQuarantined)
	}

	srv := serve.New(serve.Options{
		Config:         cfg,
		Checkpoint:     cp,
		Jobs:           *jobs,
		CellTimeout:    *cellTO,
		Retries:        *retries,
		RetryBackoff:   *backoff,
		MaxCost:        *maxCost,
		MaxQueue:       *maxQueue,
		PerClient:      *perClient,
		Breaker:        serve.BreakerConfig{Threshold: *brkThreshold, Cooldown: *brkCooldown},
		Memory:         serve.MemoryConfig{Limit: *memLimitMB << 20},
		DefaultTimeout: *defaultTO,
		MaxTimeout:     *maxTO,
		Telemetry:      tel,
		Logger:         logger,
	})

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(errOut, "pprof listen: %v\n", err)
			return 1
		}
		defer pln.Close()
		fmt.Fprintf(errOut, "pprof listening on %s\n", pln.Addr())
		// Debug-only listener on the default mux (where net/http/pprof
		// registers); it dies with the process, no drain needed.
		go func() { _ = http.Serve(pln, nil) }()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(errOut, "listen: %v\n", err)
		return 1
	}
	srv.Start(ctx)

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	b := &bootState{
		cfg: cfg, cp: cp, tel: tel, srv: srv, logger: logger, errOut: errOut,
		mux: mux, listenAddr: ln.Addr().String(),
	}
	if ext != nil && ext.configure != nil {
		if err := ext.configure(ctx, b); err != nil {
			fmt.Fprintf(errOut, "%s: %v\n", ext.name, err)
			ln.Close()
			return 1
		}
	}
	// The address line is the readiness handshake for scripts (the port may
	// have been picked by the kernel under :0).
	fmt.Fprintf(errOut, "dylect-served listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	if testHookServing != nil {
		testHookServing(ln, serveErr)
	}

	// A server that stops on its own fails the process, unless shutdown was
	// already requested: when both are ready, cancellation wins and the
	// process drains. serveErr is received exactly once, here or after
	// Shutdown.
	var stopErr error
	stopped := false
	select {
	case stopErr = <-serveErr:
		stopped = true
		if ctx.Err() == nil {
			fmt.Fprintf(errOut, "serve: %v\n", stopErr)
			return 1
		}
	case <-ctx.Done():
	}

	if b.preDrain != nil {
		b.preDrain()
	}
	fmt.Fprintf(errOut, "draining (grace %s)...\n", *drainGrace)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	clean := srv.Drain(drainCtx)
	if b.postDrain != nil {
		b.postDrain(drainCtx)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(errOut, "shutdown: %v\n", err)
	}
	if !stopped {
		stopErr = <-serveErr
	}
	if stopErr != nil && !errors.Is(stopErr, http.ErrServerClosed) {
		fmt.Fprintf(errOut, "serve: %v\n", stopErr)
	}
	if clean {
		fmt.Fprintln(errOut, "drained cleanly")
	} else {
		fmt.Fprintln(errOut, "drain grace expired; abandoned in-flight waits")
	}
	return 0
}

// clientCLI is the `dylect-served client` subcommand: one Run call with
// jittered exponential backoff honoring Retry-After, printing the rendered
// experiment blocks to out.
func clientCLI(ctx context.Context, args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("dylect-served client", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8344", "service base URL")
		exp      = fs.String("exp", "", "comma-separated experiment names (required)")
		client   = fs.String("client", "", "client identity for fairness accounting")
		timeout  = fs.Duration("timeout", 0, "request deadline propagated into cell execution (0 = server default)")
		attempts = fs.Int("attempts", 6, "max attempts across retryable rejections")
		seed     = fs.Int64("seed", 1, "backoff jitter seed")
		jsonOut  = fs.Bool("json", false, "print the raw results JSON instead of rendered blocks")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *exp == "" {
		fmt.Fprintln(out, "client: -exp is required")
		return 2
	}
	req := serve.RunRequest{
		Experiments: strings.Split(*exp, ","),
		Client:      *client,
	}
	if *timeout > 0 {
		req.TimeoutMS = timeout.Milliseconds()
	}
	c := serve.NewClient(*addr, *seed)
	c.MaxAttempts = *attempts
	resp, err := c.Run(ctx, req)
	if err != nil {
		fmt.Fprintf(errOut, "client: %v\n", err)
		return 1
	}
	if *jsonOut {
		fmt.Fprintf(out, "%s\n", resp.Results)
	} else {
		for _, er := range resp.Experiments {
			if er.Error != "" {
				fmt.Fprintf(out, "== %s (%s)\n\n!! failed [%s]: %s\n\n", er.Title, er.Name, er.Code, er.Error)
				continue
			}
			fmt.Fprintf(out, "== %s (%s)\n\n", er.Title, er.Name)
			for _, b := range er.Blocks {
				fmt.Fprintln(out, b)
			}
		}
	}
	if resp.Partial {
		fmt.Fprintln(errOut, "client: response is partial (deadline or shed cells)")
		return 3
	}
	return 0
}
