#!/usr/bin/env bash
# Admin-surface smoke over real TCP: starts one controller, one maintainer,
# one indexer and one datacenter with chariots_node on free loopback ports,
# then runs every chariots_cli admin command (health, flightrec, metrics,
# trace) against each role, plus `metrics chariots.flstore.repl.` against
# the maintainer and the controller. Fails on any non-zero exit, a CLI's or a node's (the
# nodes are stopped with SIGTERM at the end and must exit 0, so a
# sanitizer report in a node fails the run too). Nodes are killed on exit.
#
#   tools/run_cli_smoke.sh                 # default build dir (./build)
#   tools/run_cli_smoke.sh build-thread    # e.g. after run_tsan_tests.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/${1:-build}"

cmake --build "$BUILD_DIR" -j --target chariots_node chariots_cli
NODE="$BUILD_DIR/tools/chariots_node"
CLI="$BUILD_DIR/tools/chariots_cli"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/chariots_cli_smoke.XXXXXX")"
PIDS=()
NAMES=()
cleanup() {
  for pid in "${PIDS[@]}"; do kill -KILL "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

# Four free loopback ports: bound together so they are distinct, and
# closed before they are printed so the nodes can bind them.
PORTS="$(python3 -c '
import socket
socks = [socket.socket() for _ in range(4)]
for s in socks:
    s.bind(("127.0.0.1", 0))
ports = [s.getsockname()[1] for s in socks]
for s in socks:
    s.close()
print(" ".join(map(str, ports)))
')"
read -r CTRL_PORT M0_PORT IDX0_PORT DC0_PORT <<< "$PORTS"

FLSTORE=(--controller="127.0.0.1:$CTRL_PORT"
         --maintainers="127.0.0.1:$M0_PORT"
         --indexers="127.0.0.1:$IDX0_PORT")
GEO=(--geo="127.0.0.1:$DC0_PORT" --dc-id=0)

# Starts a node and waits until its port accepts connections.
start_node() {
  local name="$1" port="$2"
  shift 2
  "$NODE" "$@" > "$WORK/$name.log" 2>&1 < /dev/null &
  PIDS+=("$!")
  NAMES+=("$name")
  for _ in $(seq 100); do
    if (exec 3<> "/dev/tcp/127.0.0.1/$port") 2>/dev/null; then return 0; fi
    if ! kill -0 "${PIDS[-1]}" 2>/dev/null; then break; fi
    sleep 0.1
  done
  echo "FAIL: $name did not start" >&2
  cat "$WORK/$name.log" >&2
  exit 1
}

start_node ctrl "$CTRL_PORT" --role=controller --listen="$CTRL_PORT" \
  "${FLSTORE[@]}"
start_node m0 "$M0_PORT" --role=maintainer --index=0 --listen="$M0_PORT" \
  "${FLSTORE[@]}"
start_node idx0 "$IDX0_PORT" --role=indexer --index=0 --listen="$IDX0_PORT" \
  "${FLSTORE[@]}"
start_node dc0 "$DC0_PORT" --role=datacenter --dc-id=0 \
  --datacenters="127.0.0.1:$DC0_PORT" --listen="$DC0_PORT"

FAILED=0
# cli flstore|geo ARGS...: runs chariots_cli against the FLStore roles or
# the datacenter.
cli() {
  local mode="$1"
  shift
  local -a conn=("${FLSTORE[@]}")
  if [ "$mode" = geo ]; then conn=("${GEO[@]}"); fi
  echo "=== chariots_cli ($mode) $* ==="
  if "$CLI" "${conn[@]}" "$@" > "$WORK/cli.out" 2>&1; then
    head -5 "$WORK/cli.out"
  else
    echo "FAIL: chariots_cli ($mode) $* exited non-zero" >&2
    cat "$WORK/cli.out" >&2
    FAILED=1
  fi
}

# One record down each data path, so the metrics and traces carry data.
cli flstore append smoke kind=cli
cli geo append smoke kind=cli

for target in ctrl m0 idx0; do
  for command in health flightrec metrics trace; do
    cli flstore "$command" "$target"
  done
done
cli flstore metrics m0 chariots.flstore.repl.
cli flstore metrics ctrl chariots.flstore.repl.
for command in health flightrec metrics trace; do
  cli geo "$command"
done

# Graceful stop: every node must exit 0 within 10 s.
for pid in "${PIDS[@]}"; do kill -TERM "$pid" 2>/dev/null || true; done
for i in "${!PIDS[@]}"; do
  pid="${PIDS[$i]}"
  for _ in $(seq 100); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$pid" 2>/dev/null; then
    echo "FAIL: ${NAMES[$i]} did not stop on SIGTERM" >&2
    FAILED=1
  elif ! wait "$pid"; then
    echo "FAIL: ${NAMES[$i]} exited non-zero" >&2
    cat "$WORK/${NAMES[$i]}.log" >&2
    FAILED=1
  fi
done

if [ "$FAILED" -ne 0 ]; then
  echo "cli smoke: FAILED" >&2
  exit 1
fi
echo "cli smoke: all admin commands passed on every role"
