#!/usr/bin/env bash
# check.sh — the full local gate, identical to CI (.github/workflows/ci.yml).
#
#   fmt      gofmt -l over every Go file in the repo: any file gofmt would
#            reformat fails the step
#   build    go build ./...
#   vet      go vet ./...
#   lint     go run ./cmd/dylect-lint ./...   (the repo's own analyzers)
#   contracts  the interprocedural contract analyzers (obspure, hotalloc,
#            detflow) run alone with -json findings kept as an artifact
#            (CONTRACTS_OUT overrides the path), then the //lint:ignore
#            audit (-ignores): stale or malformed suppressions fail
#   race     go test -race ./...   (includes the jobs=1 vs jobs=N harness
#            equivalence and single-flight hammer tests at 4+ jobs)
#   stress   the harness failure paths repeated under the race detector:
#            cancel (a view's deadline leaving one attempt, a canceled
#            view keeping its worker slot), watchdog timeout, retry,
#            single-flight and the shared-warmup concurrency tests (many
#            cells restoring one image, a recorder panicking or abandoned
#            by the watchdog before its group starts, transient retries
#            inside a group, a cancel while the group waits for its image,
#            the live fallback when every image slot is taken, recordings
#            side by side at jobs 8) at -count=20, the fabric failure
#            paths (a hedged straggler, orphan re-dispatch, a verify
#            failure re-dispatched, a forgotten worker orphaning only its
#            own dispatch, a config-mismatched worker staying out across
#            heartbeats, a canceled dispatch still settling on its worker)
#            and 16 concurrent memo-hit dispatches of one cell at
#            -count=20, then the pre-canceled CLI drain report at
#            -count=200, which must be byte-stable, and the served drain
#            with the listener failed and the context canceled at once at
#            -count=200, which must drain cleanly and exit 0 every time
#   golden   re-run the golden-run regression corpus (invariant audits on)
#            and byte-compare against internal/harness/testdata/golden
#   faults   fault-injection smoke: seeded mid-run corruptions of every
#            class must be caught by the invariant auditor, and scripted
#            cell panics/hangs/transients must be contained by the pool
#   obs      observability smoke: an audited fig18 cell set run with
#            -metrics-out/-trace-out, artifacts schema-checked with
#            dylect-plot -validate-only (OBS_DIR keeps the artifacts)
#   serve    experiment-service smoke: race-mode unit tests for
#            internal/serve and cmd/dylect-served, then a shell round trip —
#            boot dylect-served (durable store, JSON logging) on an
#            ephemeral port, run the client against it, scrape /metrics
#            through `dylect-served top -raw` (the strict exposition parser
#            gates the scrape), SIGTERM, require a clean drain, then a warm
#            reboot on the same store whose scrape must show store-sourced
#            cells and no fresh simulations (SERVE_DIR keeps the server
#            log and both scrapes; the full chaos soak runs under race)
#   store    durable-store gate: race-mode unit tests for the content-
#            addressed cell store (corruption matrix, LRU journal,
#            concurrent eviction) and the harness chaos suite, then the
#            out-of-process crash-injection soak — SIGKILL a checkpointed
#            sweep mid-write across three cycles, corrupt records between
#            restarts, require quarantine + byte-identical recovery
#            (scripts/store_crash.sh; STORE_DIR keeps the artifacts)
#   fabric   distributed sweep fabric gate: race-mode unit tests for
#            internal/fabric (placement, dispatch, hedging, membership), the
#            remote-execution harness tests, and the CLI cluster round
#            trip, then the out-of-process chaos soak — coordinator plus
#            three workers with hang scripts, SIGKILL one mid-lease,
#            require orphan re-dispatch, fired hedges, a byte-identical
#            merge, bad peer requests and cell specs refused with no
#            breaker moved, clean drains, and a store-sourced warm restart
#            (scripts/fabric_chaos.sh; FABRIC_DIR keeps the artifacts)
#   dybench  the benchmark module: dybench/ is its own Go module, so
#            `go build ./...` and `go test ./...` skip it; this runs go vet
#            and go test inside it with run.sh's offline env, so a change
#            to a harness, serve or fabric API it calls fails here instead
#            of when the change is benchmarked (its smoke test also
#            re-checks the export digests)
#   fuzz     10s smoke per fuzz target: the compressors in ./internal/comp,
#            the BENCH_*.json snapshot decoder in ./internal/perfbench, the
#            DRAM scheduler against its scan reference in ./internal/dram,
#            the cell-store envelope decoder and payload checksum in
#            ./internal/cellstore, the Retry-After advice parser in
#            ./internal/retry, the worker's CellSpec decode chain in
#            ./internal/harness, the service's /v1/run request handler in
#            ./internal/serve, the fabric's join/leave and cell request
#            handlers in ./internal/fabric, and request-ID sanitizing and
#            the exposition round trip in ./internal/telemetry
#   bench    allocation-trajectory gate: run the pinned dylect-bench suite
#            and compare against the newest committed BENCH_*.json
#            snapshot; allocs/event growth past 2%, in the total or in one
#            design, fails. BENCH_COUNT sets the repetitions (default 1
#            locally, CI uses more); BENCH_OUT keeps the fresh snapshot as
#            an artifact
#
# Run a subset with e.g. `scripts/check.sh build lint`. No arguments runs
# everything. FUZZTIME overrides the per-target fuzz budget (default 10s).
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"
steps=("$@")
[ ${#steps[@]} -eq 0 ] && steps=(fmt build vet lint contracts race stress golden faults obs serve store fabric dybench fuzz bench)

for s in "${steps[@]}"; do
	case "$s" in
	fmt | build | vet | lint | contracts | race | stress | golden | faults | obs | serve | store | fabric | dybench | fuzz | bench) ;;
	*)
		echo "unknown step '$s' (want: fmt build vet lint contracts race stress golden faults obs serve store fabric dybench fuzz bench)" >&2
		exit 2
		;;
	esac
done

want() {
	local s
	for s in "${steps[@]}"; do [ "$s" = "$1" ] && return 0; done
	return 1
}

if want fmt; then
	echo "== gofmt -l"
	unformatted="$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)"
	if [ -n "$unformatted" ]; then
		echo "gofmt would reformat:" >&2
		echo "$unformatted" >&2
		exit 1
	fi
fi

if want build; then
	echo "== go build ./..."
	go build ./...
fi

if want vet; then
	echo "== go vet ./..."
	go vet ./...
fi

if want lint; then
	echo "== dylect-lint ./..."
	go run ./cmd/dylect-lint ./...
fi

if want contracts; then
	echo "== contract analyzers (obspure hotalloc detflow) + ignore audit"
	# CONTRACTS_OUT keeps the JSON findings (CI uploads them as an
	# artifact even on failure); default is ephemeral.
	contracts_out="${CONTRACTS_OUT:-$(mktemp)}"
	rc=0
	go run ./cmd/dylect-lint -enable obspure,hotalloc,detflow -json ./... \
		>"$contracts_out" || rc=$?
	if [ "$rc" -ne 0 ]; then
		echo "contract analyzers reported findings:" >&2
		cat "$contracts_out" >&2
		exit "$rc"
	fi
	go run ./cmd/dylect-lint -ignores ./...
	[ -n "${CONTRACTS_OUT:-}" ] || rm -f "$contracts_out"
fi

if want race; then
	echo "== go test -race ./..."
	go test -race ./...
fi

if want stress; then
	echo "== stress: harness and fabric failure paths under -race -count=20"
	go test -race -count=20 -run \
		'TestWatchdog|TestTransient|TestDeterministicFailureNotRetried|TestGracefulDrain|TestThreeWayCancelTimeoutRetryRace|TestViewDeadline|TestCanceledViewKeepsWorkerSlot|TestSingleFlight|TestSharedWarmup(Counts|RecordsSideBySide|ImagesAreReleased|StoreHitsReleaseClaims|RecorderPanic|CancelWhileWaiting|SecondImageFallsBackLive|RetriesKeepOneRecording|AbandonedRecorderHandsOn)|TestWaitSettled' \
		./internal/harness
	go test -race -count=20 -run \
		'TestFabricHedgeStraggler|TestFabricOrphanRedispatch|TestFabricVerifyFailedRedispatch|TestFabricForgetOrphansOnlyItsMember|TestFabricConfigMismatchEvicts|TestFabricCanceledDispatchSettles|TestFabricMemoHitBytes' \
		./internal/fabric
	go test -race -count=200 -run 'TestCLIInterruptPartialExport' ./cmd/dylectsim
	go test -race -count=200 -run 'TestServeCancelWinsOverServeError' ./cmd/dylect-served
fi

if want golden; then
	echo "== golden corpus (go test -run TestGoldenCorpus ./internal/harness)"
	go test -count=1 -run 'TestGoldenCorpus' ./internal/harness
fi

if want faults; then
	echo "== fault-injection smoke"
	# The seeded corruption matrix: every fault class x compressed design,
	# detected by the auditor inside the timed window.
	go test -count=1 -run 'TestAuditorCatchesEverySeededFaultClass|TestEventCountTrigger|TestFaultsIgnoredWithoutMCState|TestAuditCleanRuns' ./internal/system
	# Injector unit tests + the pool containment suite (watchdog, retry,
	# panic capture, graceful drain, checkpoint resume).
	go test -count=1 ./internal/faults
	go test -count=1 -run 'TestWatchdog|TestTransient|TestDeterministicFailureNotRetried|TestGracefulDrain|TestCheckpoint|TestScaledAwayFootprintError' ./internal/harness
fi

if want obs; then
	echo "== observability smoke (audited fig18 cells + schema check)"
	# OBS_DIR keeps the artifacts (CI uploads them); default is ephemeral.
	obs_dir="${OBS_DIR:-$(mktemp -d)}"
	mkdir -p "$obs_dir"
	go run ./cmd/dylectsim -exp fig18 -workloads omnetpp -scale 32 \
		-warmup 5000 -window 5 -audit \
		-metrics-out "$obs_dir/metrics.ndjson" \
		-trace-out "$obs_dir/trace.json" \
		-profile-out "$obs_dir/profile.json" >/dev/null
	go run ./cmd/dylect-plot -metrics "$obs_dir/metrics.ndjson" \
		-trace "$obs_dir/trace.json" -validate-only
	[ -n "${OBS_DIR:-}" ] || rm -rf "$obs_dir"
fi

if want serve; then
	echo "== serve smoke (race units + round trip + /metrics scrape + warm restart)"
	# -short skips the simulation-heavy soak/byte-identity tests; the full
	# chaos suite runs with everything else under the race step.
	go test -race -short -count=1 ./internal/serve ./cmd/dylect-served

	# SERVE_DIR keeps the server log and both scrapes (CI uploads them);
	# default is ephemeral.
	serve_dir="${SERVE_DIR:-$(mktemp -d)}"
	mkdir -p "$serve_dir"
	go build -o "$serve_dir/dylect-served" ./cmd/dylect-served
	serve_log="$serve_dir/server.log"
	serve_flags=(-addr 127.0.0.1:0 -workloads omnetpp -scale 32 -warmup 5000
		-window 5 -store "$serve_dir/store" -log-json)

	# boot_served starts the server and sets serve_pid/addr. log_mark
	# remembers where this boot's log begins: both boots append to one
	# file, so the address scan and the drain check must ignore earlier
	# boots' lines or the warm boot would pick up the cold address. The
	# log is created before the server starts: the child opens it only
	# once it runs, and a scan of a missing file would fail the pipeline
	# and, under set -e, the script.
	boot_served() {
		: >>"$serve_log"
		log_mark=$(wc -l <"$serve_log")
		"$serve_dir/dylect-served" "${serve_flags[@]}" >>"$serve_log" 2>&1 &
		serve_pid=$!
		addr=""
		for _ in $(seq 1 100); do
			addr="$(tail -n +$((log_mark + 1)) "$serve_log" 2>/dev/null |
				sed -n 's/.*dylect-served listening on \(.*\)/\1/p' | tail -1)"
			[ -n "$addr" ] && break
			sleep 0.1
		done
		if [ -z "$addr" ]; then
			echo "dylect-served never printed its address" >&2
			cat "$serve_log" >&2
			exit 1
		fi
	}
	# stop_served SIGTERMs the server and requires a clean drain of this
	# boot (lines past log_mark only).
	stop_served() {
		kill -TERM "$serve_pid"
		rc=0
		wait "$serve_pid" || rc=$?
		serve_pid=""
		if [ "$rc" -ne 0 ]; then
			echo "dylect-served exited $rc after SIGTERM (want 0)" >&2
			cat "$serve_log" >&2
			exit 1
		fi
		if ! tail -n +$((log_mark + 1)) "$serve_log" | grep -q "drained cleanly"; then
			echo "dylect-served drain was not clean" >&2
			cat "$serve_log" >&2
			exit 1
		fi
	}
	# reap PID... SIGTERMs the processes and waits for every one of them,
	# escalating to SIGKILL after 10s, so none outlives the script or is still
	# writing a log when the script returns.
	reap() {
		local p live
		[ $# -gt 0 ] || return 0
		kill -TERM "$@" 2>/dev/null || true
		for _ in $(seq 1 100); do
			live=0
			for p in "$@"; do
				if kill -0 "$p" 2>/dev/null; then
					live=1
				fi
			done
			if [ "$live" -eq 0 ]; then
				break
			fi
			sleep 0.1
		done
		kill -KILL "$@" 2>/dev/null || true
		for p in "$@"; do
			wait "$p" 2>/dev/null || true
		done
	}
	# A failed assertion between boot and stop must not leak the server: a
	# surviving child holds the step's output pipe open under CI and keeps
	# writing the log CI uploads. The trap keeps the script's exit status.
	trap 'rc=$?; [ -z "${serve_pid:-}" ] || reap "$serve_pid"; exit "$rc"' EXIT
	# metric_nonzero FILE PATTERN: a sample matching PATTERN has value >= 1.
	metric_nonzero() {
		grep "$2" "$1" | grep -Evq ' 0(\.0+)?$' || {
			echo "scrape $1: no nonzero sample matching '$2'" >&2
			exit 1
		}
	}

	# Cold boot: fresh simulations fill the store; the scrape must parse
	# (top -raw runs the strict exposition parser before printing) and show
	# request/queue histograms plus fresh-sourced cells.
	boot_served
	"$serve_dir/dylect-served" client -addr "http://$addr" -exp fig18 -client check-sh >/dev/null
	"$serve_dir/dylect-served" top -addr "http://$addr" -raw >"$serve_dir/metrics-cold.txt"
	metric_nonzero "$serve_dir/metrics-cold.txt" '^dylect_requests_total{code="ok"}'
	metric_nonzero "$serve_dir/metrics-cold.txt" '^dylect_request_seconds_count'
	metric_nonzero "$serve_dir/metrics-cold.txt" '^dylect_queue_wait_seconds_count'
	metric_nonzero "$serve_dir/metrics-cold.txt" 'dylect_cells_total{class="omnetpp/.*source="fresh"'
	metric_nonzero "$serve_dir/metrics-cold.txt" 'dylect_store_ops_total{op="put"}'
	if ! grep -q '"span_run_ms"' "$serve_log"; then
		echo "structured request log missing span fields" >&2
		cat "$serve_log" >&2
		exit 1
	fi
	stop_served

	# Warm reboot on the same store: the same request must settle entirely
	# from the store — store-sourced cells, store hits, zero fresh
	# simulations (the fresh series is never even created).
	boot_served
	"$serve_dir/dylect-served" client -addr "http://$addr" -exp fig18 -client check-sh >/dev/null
	"$serve_dir/dylect-served" top -addr "http://$addr" -raw >"$serve_dir/metrics-warm.txt"
	metric_nonzero "$serve_dir/metrics-warm.txt" 'dylect_cells_total{class="omnetpp/.*source="store"'
	metric_nonzero "$serve_dir/metrics-warm.txt" 'dylect_store_ops_total{op="hit"}'
	if grep 'dylect_cells_total{' "$serve_dir/metrics-warm.txt" | grep -q 'source="fresh"'; then
		echo "warm restart re-simulated cells the store should have served:" >&2
		grep 'dylect_cells_total' "$serve_dir/metrics-warm.txt" >&2
		exit 1
	fi
	stop_served
	[ -n "${SERVE_DIR:-}" ] || rm -rf "$serve_dir"
fi

if want store; then
	echo "== durable store (race units + crash-injection soak)"
	go test -race -count=1 ./internal/cellstore
	go test -race -count=1 \
		-run 'TestStoreChaos|TestCorruptCell|TestCheckpoint|TestConfigHash|TestFreshCost' \
		./internal/harness
	scripts/store_crash.sh
fi

if want fabric; then
	echo "== sweep fabric (race units + cluster chaos soak)"
	go test -race -count=1 ./internal/fabric
	go test -race -count=1 \
		-run 'TestCellSpec|TestExecuteCellPayload|TestRemote' ./internal/harness
	go test -race -count=1 \
		-run 'TestCluster|TestWorkerCLI|TestParseChaos' ./cmd/dylect-served
	scripts/fabric_chaos.sh
fi

if want dybench; then
	echo "== benchmark module (go vet + go test in dybench/)"
	(
		cd dybench
		export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
		go vet ./...
		go test ./...
	)
fi

if want fuzz; then
	# `go test -fuzz` refuses a pattern matching more than one target, so
	# enumerate the targets and smoke each one briefly.
	for pkg in ./internal/comp ./internal/perfbench ./internal/dram ./internal/cellstore ./internal/retry ./internal/harness ./internal/serve ./internal/fabric ./internal/telemetry; do
		targets=$(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true)
		if [ -z "$targets" ]; then
			echo "no fuzz targets found in $pkg" >&2
			exit 1
		fi
		for t in $targets; do
			echo "== fuzz $t ($FUZZTIME, $pkg)"
			go test -run='^$' -fuzz="^${t}\$" -fuzztime="$FUZZTIME" "$pkg"
		done
	done
fi

if want bench; then
	echo "== allocation trajectory (pinned suite vs newest committed BENCH_*.json)"
	base="$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1)"
	if [ -z "$base" ]; then
		echo "no committed BENCH_*.json baseline found" >&2
		exit 1
	fi
	bench_out="${BENCH_OUT:-$(mktemp)}"
	go run ./cmd/dylect-bench -count "${BENCH_COUNT:-1}" -quiet -out "$bench_out"
	go run ./cmd/dylect-bench -compare "$base" "$bench_out"
	[ -n "${BENCH_OUT:-}" ] || rm -f "$bench_out"
fi

echo "all checks passed"
