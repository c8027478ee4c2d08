#!/usr/bin/env bash
# cluster.sh — bring up the region-sharded serving tier end to end:
# two durable tampserver shards (west/east split of the grid), a tamprouter
# fronting them, and a tampgen load run driven through the router.
#
#   scripts/cluster.sh            # build, boot, load, report, tear down
#   CLUSTER_SMOKE=1 scripts/cluster.sh
#                                 # additionally kill -9 the west shard under
#                                 # load, assert the fleet degrades instead of
#                                 # failing, restart the shard from its WAL,
#                                 # and verify zero acked ops were lost
#
# Requires curl and jq (both present on CI runners).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
RUN="$(mktemp -d)"
SMOKE="${CLUSTER_SMOKE:-0}"
ROUTER="http://127.0.0.1:18090"
WEST_ADDR="127.0.0.1:18081"
EAST_ADDR="127.0.0.1:18082"

PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$RUN"
}
trap cleanup EXIT

say() { printf '\n== %s\n' "$*"; }

say "building binaries"
mkdir -p "$RUN/bin"
(cd "$ROOT" && go build -o "$RUN/bin/" ./cmd/tampserver ./cmd/tamprouter ./cmd/tampgen)

cat > "$RUN/shards.json" <<EOF
{
  "grid": {"cols": 100, "rows": 50},
  "borderKm": 1,
  "shards": [
    {"name": "west", "url": "http://$WEST_ADDR", "xmin": 0,  "xmax": 50},
    {"name": "east", "url": "http://$EAST_ADDR", "xmin": 50, "xmax": 100}
  ]
}
EOF

# start_shard <addr> <offer-base> <wal-dir>; echoes the PID.
start_shard() {
    "$RUN/bin/tampserver" -addr "$1" -manual -offer-base "$2" \
        -wal-dir "$3" -defer-recovery -request-timeout 10s \
        >>"$RUN/$(basename "$3").log" 2>&1 &
    echo $!
}

# wait_ready <base-url> [tries]: poll /readyz until 200.
wait_ready() {
    local url="$1" tries="${2:-80}"
    for _ in $(seq "$tries"); do
        if curl -sf "$url/readyz" >/dev/null 2>&1; then return 0; fi
        sleep 0.25
    done
    echo "FAIL: $url never became ready" >&2
    exit 1
}

# wait_shard_admitted <name>: poll the router's /metrics until its probe
# has admitted the named shard (tamp_router_shard_ready{shard="<name>"} 1).
wait_shard_admitted() {
    local name="$1"
    for _ in $(seq 80); do
        # grep without -q reads all of its input: no SIGPIPE for curl under pipefail.
        if curl -s "$ROUTER/metrics" | grep -Fx "tamp_router_shard_ready{shard=\"$name\"} 1" >/dev/null; then return 0; fi
        sleep 0.25
    done
    echo "FAIL: router never admitted shard $name" >&2
    exit 1
}

say "starting shards and router"
mkdir -p "$RUN/wal-west" "$RUN/wal-east"
WEST_PID=$(start_shard "$WEST_ADDR" 1000000000 "$RUN/wal-west"); PIDS+=("$WEST_PID")
EAST_PID=$(start_shard "$EAST_ADDR" 2000000000 "$RUN/wal-east"); PIDS+=("$EAST_PID")
"$RUN/bin/tamprouter" -addr 127.0.0.1:18090 -map "$RUN/shards.json" \
    -probe-interval 250ms >>"$RUN/router.log" 2>&1 &
PIDS+=($!)
wait_ready "http://$WEST_ADDR"
wait_ready "http://$EAST_ADDR"
wait_ready "$ROUTER"
wait_shard_admitted west
wait_shard_admitted east

say "submitting a marker task on the west shard"
MARK=$(curl -sf -X POST "$ROUTER/api/tasks" \
    -d '{"x":10,"y":10,"deadline":100000}' | jq .id)
echo "marker task id: $MARK"

say "driving load through the router"
"$RUN/bin/tampgen" -tasks 150 -drive "$ROUTER" -drive-conc 8 -out "$RUN/run1" >/dev/null
AVAIL1=$(jq .errorBudget.availability "$RUN/run1/drive_report.json")
echo "run 1 availability: $AVAIL1"
jq '{ops: (.ops | map_values({count, errors, sheds, p99Ms})), errorBudget}' \
    "$RUN/run1/drive_report.json"
if ! jq -e '.errorBudget.availability >= 0.99' "$RUN/run1/drive_report.json" >/dev/null; then
    echo "FAIL: healthy-fleet availability $AVAIL1 < 0.99" >&2
    exit 1
fi

if [ "$SMOKE" = "1" ]; then
    say "chaos: kill -9 the west shard"
    kill -9 "$WEST_PID"
    sleep 1 # let the probes notice

    # The fleet degrades, it does not fail: the router stays ready on east,
    # east traffic is served, west interior traffic queues or sheds.
    curl -sf "$ROUTER/readyz" >/dev/null ||
        { echo "FAIL: router unready with east still up" >&2; exit 1; }
    CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$ROUTER/api/tasks" \
        -d '{"x":90,"y":10,"deadline":100000}')
    [ "$CODE" = "201" ] ||
        { echo "FAIL: east submit during west outage: $CODE" >&2; exit 1; }
    CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$ROUTER/api/tasks" \
        -d '{"x":12,"y":10,"deadline":100000}')
    case "$CODE" in 202|503) ;; *)
        echo "FAIL: west submit during outage: $CODE (want 202 queued or 503 shed)" >&2; exit 1;;
    esac

    say "chaos: restart west from its WAL"
    WEST_PID=$(start_shard "$WEST_ADDR" 1000000000 "$RUN/wal-west"); PIDS+=("$WEST_PID")
    wait_ready "http://$WEST_ADDR"
    wait_shard_admitted west

    # Zero lost acked ops: the marker task survived the kill.
    CODE=$(curl -s -o /dev/null -w '%{http_code}' "$ROUTER/api/tasks/$MARK")
    [ "$CODE" = "200" ] ||
        { echo "FAIL: acked task $MARK lost across the crash: $CODE" >&2; exit 1; }

    say "driving load through the rejoined fleet"
    "$RUN/bin/tampgen" -tasks 100 -drive "$ROUTER" -drive-conc 8 -out "$RUN/run2" >/dev/null
    AVAIL2=$(jq .errorBudget.availability "$RUN/run2/drive_report.json")
    echo "run 2 availability: $AVAIL2"
    if ! jq -e '.errorBudget.availability >= 0.99' "$RUN/run2/drive_report.json" >/dev/null; then
        echo "FAIL: post-rejoin availability $AVAIL2 < 0.99" >&2
        exit 1
    fi
    say "cluster smoke passed: degraded under kill -9, rejoined from WAL, no acked op lost"
else
    say "cluster run complete (set CLUSTER_SMOKE=1 for the kill/rejoin chaos pass)"
fi
