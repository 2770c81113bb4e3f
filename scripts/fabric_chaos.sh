#!/usr/bin/env bash
# fabric_chaos.sh — chaos soak for the distributed sweep fabric
# (internal/fabric via `dylect-served coordinator|worker`).
#
# The in-process fabric suite exercises orphan re-dispatch, hedging, and
# envelope verification against httptest workers; this script does it with
# real processes, real SIGKILLs, and real sockets:
#
#   1. Run the sweep through a single dylect-served process (-jobs 8) and
#      keep the client's -json response as the reference.
#   2. Boot a coordinator (durable store, fast heartbeat, 2s hedge delay)
#      and worker1, which joins by announcement and is the ring's only
#      member when the sweep starts:
#        worker1  -chaos hang:    every cell hangs forever, with no
#                                 watchdog, so each cell it takes holds its
#                                 lease until the worker dies
#   3. Sweep through the coordinator. Every first dispatch goes to worker1;
#      once worker1's log shows a cell taken ("chaos cell taken"), boot two
#      more workers, which join the ring, then SIGKILL worker1. The
#      transport break orphans the leases it held, so orphans are certain
#      whatever the ring's hashing:
#        worker2  clean
#        worker3  -chaos hang::1  the first attempt of every cell it takes
#                                 hangs past the hedge delay (failN counts
#                                 each cell's attempts, and the empty match
#                                 takes every cell) — the coordinator must
#                                 hedge each such cell to the next replica
#                                 while worker3's watchdog abandons the
#                                 straggler
#      The client must still exit 0 and its response must be byte-identical
#      to the reference. The /metrics scrape must show orphans, fired
#      hedges, and remote-sourced cells, and the surviving processes must
#      drain cleanly on SIGTERM.
#   4. Bad peers: a join announcing "::" to the coordinator and a 2 MiB
#      /fabric/v1/cell body to worker2 must each be answered 4xx, and the
#      ring size in the scrape must not move. Then nine cell specs no
#      coordinator sends, each pinned with the config hash and schema of
#      the coordinator store's manifest.json, go to worker2's
#      /fabric/v1/cell: the refused specs of TestWorkerRefusesUnplannedCells
#      (out-of-range knobs, an unplanned CTE size, an unknown workload) and
#      a planned cell spelled with its knobs zeroed. Each must be a 400, and
#      worker2's dylect_cell_failures_total and
#      dylect_breaker_transitions_total samples must not move.
#   5. Warm restart: a fresh coordinator on the same store with an EMPTY
#      ring re-runs the sweep. It must settle entirely store-sourced —
#      byte-identical again, no fresh simulations, no remote dispatches.
#
# FABRIC_DIR keeps the artifacts (CI uploads the per-process logs and both
# scrapes); default is ephemeral.
set -euo pipefail
cd "$(dirname "$0")/.."

dir="${FABRIC_DIR:-$(mktemp -d)}"
mkdir -p "$dir"
bin="$dir/dylect-served"
cfg=(-workloads omnetpp,bfs -scale 32 -warmup 10000 -window 8)
exps=fig17,fig19

echo "== build"
go build -o "$bin" ./cmd/dylect-served

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
pids=()
trap 'rc=$?; reap "${pids[@]}"; exit "$rc"' EXIT

# boot LOGFILE ARGS... starts one dylect-served process, waits for its
# address handshake, and sets boot_pid/addr. The log is created before the
# process starts: the child opens it only once it runs, and a scan of a
# missing file would fail the pipeline and, under set -e, the script.
boot() {
	local log="$1"
	shift
	: >>"$log"
	"$bin" "$@" >>"$log" 2>&1 &
	boot_pid=$!
	pids+=("$boot_pid")
	addr=""
	for _ in $(seq 1 100); do
		addr="$(sed -n 's/.*dylect-served listening on \(.*\)/\1/p' "$log" 2>/dev/null | tail -1)"
		[ -n "$addr" ] && break
		sleep 0.1
	done
	if [ -z "$addr" ]; then
		echo "$log: no address handshake" >&2
		cat "$log" >&2
		exit 1
	fi
}

# stop PID LOGFILE SIGTERMs one process and requires exit 0 plus a clean
# drain.
stop() {
	kill -TERM "$1"
	local rc=0
	wait "$1" || rc=$?
	if [ "$rc" -ne 0 ]; then
		echo "$2: exited $rc after SIGTERM (want 0)" >&2
		cat "$2" >&2
		exit 1
	fi
	if ! grep -q "drained cleanly" "$2"; then
		echo "$2: drain was not clean" >&2
		cat "$2" >&2
		exit 1
	fi
}

# metric_nonzero FILE PATTERN: a sample matching PATTERN has value >= 1.
metric_nonzero() {
	grep "$2" "$1" | grep -Evq ' 0(\.0+)?$' || {
		echo "scrape $1: no nonzero sample matching '$2'" >&2
		exit 1
	}
}

echo "== reference run (single process, -jobs 8)"
boot "$dir/ref.log" "${cfg[@]}" -addr 127.0.0.1:0 -jobs 8
ref_pid=$boot_pid
"$bin" client -addr "http://$addr" -exp "$exps" -json >"$dir/ref.json"
stop "$ref_pid" "$dir/ref.log"

echo "== cluster: coordinator + worker1, the ring's only member"
boot "$dir/coord.log" coordinator "${cfg[@]}" -addr 127.0.0.1:0 -jobs 8 \
	-store "$dir/store" -hedge-after 2s -hedge-min 1s -hedge-max 4s \
	-heartbeat 250ms -dead-after 3 -dispatch-backoff 100ms
coord_pid=$boot_pid
coord_addr=$addr

boot "$dir/worker1.log" worker "${cfg[@]}" -addr 127.0.0.1:0 \
	-coordinator "http://$coord_addr" -chaos hang:
w1_pid=$boot_pid

echo "== sweep through the cluster; SIGKILL worker1 while it holds a cell"
"$bin" client -addr "http://$coord_addr" -exp "$exps" -json >"$dir/out.json" &
client_pid=$!
pids+=("$client_pid")
held=""
for _ in $(seq 1 300); do
	if grep -q "chaos cell taken" "$dir/worker1.log"; then
		held=1
		break
	fi
	sleep 0.1
done
if [ -z "$held" ]; then
	echo "worker1 took no cell within 30s" >&2
	cat "$dir/worker1.log" "$dir/coord.log" >&2
	exit 1
fi
boot "$dir/worker2.log" worker "${cfg[@]}" -addr 127.0.0.1:0 \
	-coordinator "http://$coord_addr"
w2_pid=$boot_pid
w2_addr=$addr
boot "$dir/worker3.log" worker "${cfg[@]}" -addr 127.0.0.1:0 \
	-coordinator "http://$coord_addr" -chaos hang::1 -cell-timeout 5s
w3_pid=$boot_pid
kill -KILL "$w1_pid" 2>/dev/null || true
wait "$w1_pid" 2>/dev/null || true
rc=0
wait "$client_pid" || rc=$?
if [ "$rc" -ne 0 ]; then
	echo "cluster client exited $rc (want 0 despite the dead worker)" >&2
	cat "$dir/coord.log" >&2
	exit 1
fi
if ! cmp -s "$dir/ref.json" "$dir/out.json"; then
	echo "cluster response differs from the single-process reference" >&2
	exit 1
fi

"$bin" top -addr "http://$coord_addr" -raw >"$dir/metrics-chaos.txt"
metric_nonzero "$dir/metrics-chaos.txt" '^dylect_fabric_orphans_total'
metric_nonzero "$dir/metrics-chaos.txt" '^dylect_fabric_hedges_total{event="fired"}'
metric_nonzero "$dir/metrics-chaos.txt" '^dylect_fabric_dispatches_total{.*outcome="ok"'
metric_nonzero "$dir/metrics-chaos.txt" 'dylect_cells_total{.*source="remote"'

echo "== bad peers: a join of '::' and a 2 MiB cell body must be refused"
# post_status URL FILE prints the HTTP status of POSTing FILE to URL.
post_status() {
	curl -s -o /dev/null -w '%{http_code}' -H 'Content-Type: application/json' \
		--data-binary "@$2" "$1" || true
}
# ring_workers FILE prints the ring size a scrape reports.
ring_workers() {
	sed -n 's/^dylect_fabric_ring_workers \(.*\)/\1/p' "$1"
}
"$bin" top -addr "http://$coord_addr" -raw >"$dir/metrics-bad-before.txt"
printf '{"worker":"::"}' >"$dir/bad-join.json"
{
	printf '{"configHash":"'
	head -c $((2 << 20)) /dev/zero | tr '\0' x
	printf '"}'
} >"$dir/big-cell.json"
for probe in "http://$coord_addr/fabric/v1/join:$dir/bad-join.json" \
	"http://$w2_addr/fabric/v1/cell:$dir/big-cell.json"; do
	url="${probe%:*}"
	code=$(post_status "$url" "${probe##*:}")
	case "$code" in
	4??) ;;
	*)
		echo "POST $url answered $code, want 4xx" >&2
		exit 1
		;;
	esac
done
"$bin" top -addr "http://$coord_addr" -raw >"$dir/metrics-bad-after.txt"
before=$(ring_workers "$dir/metrics-bad-before.txt")
after=$(ring_workers "$dir/metrics-bad-after.txt")
if [ -z "$before" ] || [ "$before" != "$after" ]; then
	echo "ring size moved across the bad peer requests: '$before' -> '$after'" >&2
	exit 1
fi

echo "== bad peers: cell specs outside the admissible domain must be 400s"
manifest="$dir/store/manifest.json"
hash=$(sed -n 's/^  "configHash": "\(.*\)",*$/\1/p' "$manifest")
schema=$(sed -n 's/^  "schemaVersion": "\(.*\)",*$/\1/p' "$manifest")
if [ -z "$hash" ] || [ -z "$schema" ]; then
	echo "$manifest: no config hash or schema" >&2
	exit 1
fi
# cell_spec GRAN CTE GROUP PERIOD [WORKLOAD] prints a dylect/high huge-page
# spec. The planned one at this config is 4096 4096 3 20 omnetpp.
cell_spec() {
	printf '{"workload":"%s","design":"dylect","setting":"high","hugePages":true,"cteCacheBytes":%s,"granularity":%s,"groupSize":%s,"samplePeriod":%s}' \
		"${5:-omnetpp}" "$2" "$1" "$3" "$4"
}
# breaker_samples FILE prints a scrape's cell failure and breaker samples.
breaker_samples() {
	grep -E '^dylect_(cell_failures|breaker_transitions)_total' "$1" || true
}
"$bin" top -addr "http://$w2_addr" -raw >"$dir/metrics-w2-before.txt"
n=0
for spec in "$(cell_spec 3 4096 3 20)" "$(cell_spec $((1 << 40)) 4096 3 20)" \
	"$(cell_spec 4096 -64 3 20)" "$(cell_spec 4096 100 3 20)" \
	"$(cell_spec 4096 $((1 << 40)) 3 20)" "$(cell_spec 4096 4096 $((1 << 40)) 20)" \
	"$(cell_spec 4096 12288 3 20)" "$(cell_spec 4096 4096 3 20 nosuch)" \
	"$(cell_spec 0 0 0 0)"; do
	n=$((n + 1))
	printf '{"spec":%s,"configHash":"%s","schema":"%s"}' "$spec" "$hash" "$schema" >"$dir/spec-$n.json"
	code=$(post_status "http://$w2_addr/fabric/v1/cell" "$dir/spec-$n.json")
	if [ "$code" != 400 ]; then
		echo "worker2 answered $code to $spec, want 400" >&2
		exit 1
	fi
done
"$bin" top -addr "http://$w2_addr" -raw >"$dir/metrics-w2-after.txt"
if [ "$(breaker_samples "$dir/metrics-w2-before.txt")" != "$(breaker_samples "$dir/metrics-w2-after.txt")" ]; then
	echo "worker2's cell failures or breaker transitions moved across the refused specs:" >&2
	diff "$dir/metrics-w2-before.txt" "$dir/metrics-w2-after.txt" >&2 || true
	exit 1
fi

for w in "$w2_pid:$dir/worker2.log" "$w3_pid:$dir/worker3.log"; do
	stop "${w%%:*}" "${w#*:}"
	if ! grep -q "fabric dispatches drained" "${w#*:}"; then
		echo "${w#*:}: worker drain abandoned in-flight dispatches" >&2
		cat "${w#*:}" >&2
		exit 1
	fi
done
stop "$coord_pid" "$dir/coord.log"

echo "== warm restart: empty ring, same store, must settle store-sourced"
boot "$dir/warm.log" coordinator "${cfg[@]}" -addr 127.0.0.1:0 -jobs 8 \
	-store "$dir/store"
warm_pid=$boot_pid
"$bin" client -addr "http://$addr" -exp "$exps" -json >"$dir/warm.json"
"$bin" top -addr "http://$addr" -raw >"$dir/metrics-warm.txt"
if ! cmp -s "$dir/ref.json" "$dir/warm.json"; then
	echo "warm cluster response differs from the reference" >&2
	exit 1
fi
metric_nonzero "$dir/metrics-warm.txt" 'dylect_cells_total{.*source="store"'
if grep 'dylect_cells_total{' "$dir/metrics-warm.txt" | grep -Eq 'source="(fresh|remote)"'; then
	echo "warm restart left the store: cells re-simulated or re-dispatched:" >&2
	grep 'dylect_cells_total' "$dir/metrics-warm.txt" >&2
	exit 1
fi
stop "$warm_pid" "$dir/warm.log"

[ -n "${FABRIC_DIR:-}" ] || rm -rf "$dir"
echo "fabric chaos soak passed"
