// Command dylect-served serves the experiment harness over HTTP/JSON with
// admission control, request deadlines, per-(workload, design) circuit
// breakers, and memory-pressure degradation (see internal/serve and
// DESIGN.md §11).
//
// Usage:
//
//	dylect-served -addr 127.0.0.1:8344 -quick -jobs 8
//	dylect-served -addr :8344 -mem-limit 4096 -max-cost 16
//	dylect-served client -addr http://127.0.0.1:8344 -exp fig4,fig18
//	dylect-served top -addr http://127.0.0.1:8344
//	dylect-served worker -addr :0 -quick -coordinator http://127.0.0.1:8344
//	dylect-served coordinator -addr :8344 -quick -workers http://127.0.0.1:9001
//
// worker and coordinator form the distributed sweep fabric (internal/fabric,
// DESIGN.md §16): the coordinator plans and merges sweeps, dispatching
// checkpoint-missing cells over a ring of workers placed by rendezvous
// hashing; merged exports are byte-identical to a single-process run.
//
// The server prints "listening on ADDR" to stderr once the listener is up.
// SIGINT/SIGTERM triggers the drain sequence: /readyz flips to 503
// immediately, in-flight requests finish (bounded by -drain-grace, after
// which their waits are abandoned and they return partial results), /healthz
// flips, the listener closes, and the process exits 0.
package main

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var code int
	switch {
	case len(os.Args) > 1 && os.Args[1] == "client":
		code = clientCLI(ctx, os.Args[2:], os.Stdout, os.Stderr)
	case len(os.Args) > 1 && os.Args[1] == "top":
		code = topCLI(ctx, os.Args[2:], os.Stdout, os.Stderr)
	case len(os.Args) > 1 && os.Args[1] == "worker":
		code = workerCLI(ctx, os.Args[2:], os.Stdout, os.Stderr)
	case len(os.Args) > 1 && os.Args[1] == "coordinator":
		code = coordinatorCLI(ctx, os.Args[2:], os.Stdout, os.Stderr)
	default:
		code = serverCLI(ctx, os.Args[1:], os.Stdout, os.Stderr)
	}
	os.Exit(code)
}
