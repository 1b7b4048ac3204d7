#!/usr/bin/env bash
# Two-process deployment smokes: collector_server in its own process,
# fleet_simulation connecting to it over a unix socket or TCP loopback.
#
# Each row of the table below runs one deployment shape:
#
#   1. an in-process oracle: fleet_simulation with the row's fleet
#      arguments and no collector connection; record its
#      "aggregate digest:" line;
#   2. collector_server with the row's server flags, then the same fleet
#      connected to it (plus the row's connection flags).
#
# Both processes must exit 0 -- the server fails on any stream error,
# lost run, refused handshake or saturated aggregate -- and the server's
# aggregate digest must equal the oracle's: the transport added nothing
# and lost nothing. Socket paths live in a fresh mktemp directory and
# TCP servers bind port 0, so concurrent runs (ctest -j) never collide.
#
# usage: two_process_smoke.sh COLLECTOR_SERVER FLEET_SIMULATION
set -u

SERVER=${1:?usage: two_process_smoke.sh COLLECTOR_SERVER FLEET_SIMULATION}
FLEET=${2:?usage: two_process_smoke.sh COLLECTOR_SERVER FLEET_SIMULATION}

# name | family | server flags | fleet arguments | connection-only flags
ROWS=(
  "unix_mutex|unix|--consumers=2 --analytics|20000 12 --analytics|"
  "unix_owned|unix|--consumers=2 --owned-shards --analytics|20000 12 --analytics|"
  "unix_d4|unix|--consumers=2 --dims=4|20000 12 --dims=4|"
  "tcp_stripes|tcp|--consumers=2|20000 12|--connect-streams=4"
  "tcp_d4|tcp|--consumers=2 --dims=4|20000 12 --dims=4|--connect-streams=2"
  # The server severs every active connection every 20 ms; the fleet
  # rides the kills by redialing and replaying its unacked window, and
  # the server's dedup keeps ingest exactly-once.
  "tcp_chaos|tcp|--consumers=2 --chaos-kill-ms=20|50000 12|--connect-streams=4 --reconnect-attempts=200 --connect-backoff-ms=5"
)

DIR=$(mktemp -d /tmp/capp_smoke_XXXXXX)
SERVER_PID=""
ROW=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
  rm -rf "$DIR"
}
trap cleanup EXIT

die() {
  echo "two_process_smoke: FAIL [$ROW]: $*" >&2
  for log in "$DIR/$ROW".*.log; do
    [ -e "$log" ] || continue
    echo "---- $log ----" >&2
    tail -n 40 "$log" >&2
  done
  exit 1
}

digest_of() {
  sed -n 's/^aggregate digest: //p' "$1" | tail -n 1
}

# Polls (up to 10 s) until the server is ready and prints the fleet flag
# that reaches it.
endpoint_of() {
  local family=$1 log=$2 sock=$3 port=""
  for _ in $(seq 100); do
    if [ "$family" = unix ]; then
      [ -S "$sock" ] && { echo "--connect=$sock"; return 0; }
    else
      port=$(sed -n \
        's/^collector_server: listening on tcp 127\.0\.0\.1:\([0-9]*\) .*/\1/p' \
        "$log")
      [ -n "$port" ] && { echo "--connect-tcp=127.0.0.1:$port"; return 0; }
    fi
    kill -0 "$SERVER_PID" 2>/dev/null || return 1
    sleep 0.1
  done
  return 1
}

for row in "${ROWS[@]}"; do
  IFS='|' read -r ROW family server_flags fleet_args connect_flags <<< "$row"
  log="$DIR/$ROW"
  # shellcheck disable=SC2086  # flag lists split on purpose
  "$FLEET" $fleet_args > "$log.oracle.log" 2>&1 \
    || die "in-process oracle run failed"
  oracle=$(digest_of "$log.oracle.log")
  [ -n "$oracle" ] || die "in-process run printed no aggregate digest"

  sock="$DIR/$ROW.sock"
  if [ "$family" = unix ]; then
    listen="--socket=$sock"
  else
    listen="--tcp=127.0.0.1:0"
  fi
  # shellcheck disable=SC2086
  "$SERVER" "$listen" --sessions=1 $server_flags > "$log.server.log" 2>&1 &
  SERVER_PID=$!
  endpoint=$(endpoint_of "$family" "$log.server.log" "$sock") \
    || die "server never came up"
  # shellcheck disable=SC2086
  "$FLEET" $fleet_args "$endpoint" $connect_flags > "$log.fleet.log" 2>&1 \
    || die "fleet run failed"
  wait "$SERVER_PID" || die "server failed"
  SERVER_PID=""
  remote=$(digest_of "$log.server.log")
  [ "$remote" = "$oracle" ] \
    || die "digest mismatch: in-process=$oracle two-process=$remote"
  note=""
  if [ "$ROW" = tcp_chaos ] && ! grep -q "chaos: killed" "$log.server.log"; then
    note=" (chaos thread landed no kills this run)"
  fi
  echo "two_process_smoke: $ROW ok, digest $remote$note"
done
echo "two_process_smoke: PASS (${#ROWS[@]} rows)"
exit 0
