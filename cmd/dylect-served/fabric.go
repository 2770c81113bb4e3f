package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dylect/internal/fabric"
	"dylect/internal/faults"
	"dylect/internal/harness"
	"dylect/internal/system"
)

// The fabric subcommands. `dylect-served worker` is a normal server plus the
// /fabric/v1/cell and /fabric/v1/verify endpoints; `dylect-served
// coordinator` is a normal server whose runner dispatches checkpoint-missing
// cells over the worker ring instead of simulating them locally. Both reuse
// the shared servedCLI boot: every server flag (store, breaker, admission,
// telemetry) means the same thing in every role.

// workerCLI runs `dylect-served worker`.
func workerCLI(ctx context.Context, args []string, out, errOut io.Writer) int {
	var (
		coordinator *string
		advertise   string
		chaos       *string
	)
	var w *fabric.Worker
	var announceURL string
	ext := &modeExt{
		name: "worker",
		addFlags: func(fs *flag.FlagSet) {
			coordinator = fs.String("coordinator", "", "coordinator base URL to announce join/leave to (empty = rely on its -workers list or heartbeat)")
			fs.Func("advertise", "base URL the coordinator should dial this worker at (empty = http://<listen addr>)", func(v string) error {
				advertise = v
				if v == "" {
					return nil
				}
				return fabric.CheckWorkerURL(v)
			})
			chaos = fs.String("chaos", "", "comma-separated fault script kind:match[:failN] (kind: panic, hang, transient); chaos soak only")
		},
		configure: func(ctx context.Context, b *bootState) error {
			if *chaos != "" {
				ci, err := parseChaos(*chaos)
				if err != nil {
					return err
				}
				// Each attempt the script sees is logged before any fault
				// fires, so a soak can tell when this worker holds a cell.
				b.srv.Runner().SetCellHook(func(cell string) error {
					b.logger.Info("chaos cell taken", "cell", cell)
					return ci.Hook(cell)
				})
				fmt.Fprintf(b.errOut, "chaos script armed: %s\n", *chaos)
			}
			w = fabric.NewWorker(fabric.WorkerOptions{
				Runner:     b.srv.Runner(),
				Checkpoint: b.cp,
				ConfigHash: harness.ConfigHash(b.cfg),
				Schema:     system.SchemaVersion,
				Ready:      b.srv.Ready,
				Log:        b.logger,
			})
			w.Register(b.mux)
			announceURL = advertise
			if announceURL == "" {
				announceURL = "http://" + b.listenAddr
			}
			if *coordinator != "" {
				if err := announce(ctx, *coordinator+fabric.JoinPath, announceURL); err != nil {
					// Not fatal: the coordinator may boot later and find this
					// worker via its -workers list or a later re-announce.
					fmt.Fprintf(b.errOut, "worker: join announce failed: %v\n", err)
				} else {
					fmt.Fprintf(b.errOut, "worker: joined %s as %s\n", *coordinator, announceURL)
				}
			}
			b.preDrain = func() {
				if *coordinator == "" {
					return
				}
				// Graceful departure: the ring stops offering this worker cells
				// before the drain starts waiting on the in-flight ones.
				actx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				if err := announce(actx, *coordinator+fabric.LeavePath, announceURL); err != nil {
					fmt.Fprintf(b.errOut, "worker: leave announce failed: %v\n", err)
				}
			}
			b.postDrain = func(dctx context.Context) {
				if w.Drain(dctx) {
					fmt.Fprintln(b.errOut, "worker: fabric dispatches drained")
				} else {
					fmt.Fprintln(b.errOut, "worker: fabric drain grace expired")
				}
			}
			return nil
		},
	}
	return servedCLI(ctx, args, out, errOut, ext)
}

// coordinatorCLI runs `dylect-served coordinator`.
func coordinatorCLI(ctx context.Context, args []string, out, errOut io.Writer) int {
	var (
		workers    []string
		lease      *time.Duration
		hedgeAfter *time.Duration
		hedgeMin   *time.Duration
		hedgeMax   *time.Duration
		attempts   *int
		dbackoff   *time.Duration
		heartbeat  *time.Duration
		deadAfter  *int
		fseed      *int64
	)
	ext := &modeExt{
		name: "coordinator",
		addFlags: func(fs *flag.FlagSet) {
			fs.Func("workers", "comma-separated worker base URLs seeding the ring (workers may also join via /fabric/v1/join)", func(v string) (err error) {
				workers, err = parseWorkers(v)
				return err
			})
			lease = fs.Duration("lease", 2*time.Minute, "per-dispatch lease: a worker silent past it is treated as hung and the cell re-dispatches")
			hedgeAfter = fs.Duration("hedge-after", time.Second, "straggler delay before the latency window can derive a p95")
			hedgeMin = fs.Duration("hedge-min", 100*time.Millisecond, "lower clamp on the p95-derived hedge delay")
			hedgeMax = fs.Duration("hedge-max", 10*time.Second, "upper clamp on the p95-derived hedge delay")
			attempts = fs.Int("dispatch-attempts", 3, "workers a cell is offered to before its failure surfaces")
			dbackoff = fs.Duration("dispatch-backoff", 200*time.Millisecond, "base backoff between dispatch attempts (full jitter; a worker's Retry-After overrides it, capped at 10s)")
			heartbeat = fs.Duration("heartbeat", time.Second, "worker readiness probe interval")
			deadAfter = fs.Int("dead-after", 3, "consecutive heartbeat/dispatch failures before a worker leaves the ring")
			fseed = fs.Int64("fabric-seed", 1, "dispatch backoff jitter seed (scheduling only; never reaches exported bytes)")
		},
		configure: func(ctx context.Context, b *bootState) error {
			coord := fabric.New(fabric.Config{
				Workers:      workers,
				ConfigHash:   harness.ConfigHash(b.cfg),
				Schema:       system.SchemaVersion,
				Lease:        *lease,
				HedgeAfter:   *hedgeAfter,
				HedgeMin:     *hedgeMin,
				HedgeMax:     *hedgeMax,
				Attempts:     *attempts,
				RetryBackoff: *dbackoff,
				Heartbeat:    *heartbeat,
				DeadAfter:    *deadAfter,
				Seed:         *fseed,
				Log:          b.logger,
				Metrics:      fabric.NewMetrics(b.tel.Registry()),
			})
			coord.Register(b.mux)
			coord.Start(ctx)
			// Checkpoint-missing cells now dispatch over the ring; store hits
			// still settle locally, so a warm coordinator never dials out.
			b.srv.Runner().SetRemoteExecutor(coord.Execute)
			fmt.Fprintf(b.errOut, "coordinator: ring seeded with %d worker(s)\n", coord.RingSize())
			b.postDrain = func(context.Context) { coord.Stop() }
			return nil
		},
	}
	return servedCLI(ctx, args, out, errOut, ext)
}

// parseWorkers splits a -workers list, trimming each item; an empty list
// seeds no worker, and an item failing fabric.CheckWorkerURL fails the
// flag.
func parseWorkers(list string) ([]string, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var out []string
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		if err := fabric.CheckWorkerURL(item); err != nil {
			return nil, err
		}
		out = append(out, item)
	}
	return out, nil
}

// announce posts a membership change (join or leave) to the coordinator.
func announce(ctx context.Context, url, worker string) error {
	body, err := json.Marshal(fabric.MemberRequest{Worker: worker})
	if err != nil {
		return err
	}
	actx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("announce %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// parseChaos compiles a -chaos script into a cell injector. Specs are
// comma-separated kind:match[:failN]; match is a cell-key substring (empty
// matches every cell), failN bounds how many attempts of each matching cell
// fail before that cell succeeds (0 or omitted = every attempt).
func parseChaos(script string) (*faults.CellInjector, error) {
	ci := faults.NewCellInjector()
	for _, spec := range strings.Split(script, ",") {
		parts := strings.SplitN(spec, ":", 3)
		if len(parts) < 2 {
			return nil, fmt.Errorf("chaos spec %q: want kind:match[:failN]", spec)
		}
		var kind faults.CellFaultKind
		switch parts[0] {
		case "panic":
			kind = faults.CellPanic
		case "hang":
			kind = faults.CellHang
		case "transient":
			kind = faults.CellTransient
		default:
			return nil, fmt.Errorf("chaos spec %q: unknown kind %q", spec, parts[0])
		}
		fail := 0
		if len(parts) == 3 {
			n, err := strconv.Atoi(parts[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("chaos spec %q: bad failN", spec)
			}
			fail = n
		}
		ci.Script(parts[1], faults.CellSpec{Kind: kind, Fail: fail})
	}
	return ci, nil
}
