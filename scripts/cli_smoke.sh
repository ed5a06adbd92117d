#!/usr/bin/env bash
# cli_smoke.sh — the daemon command end to end on fixed loopback ports:
# a two-node `edserverd -mesh 2` under one gzip merged capture, loaded
# across both nodes by `edload` and stopped with SIGTERM. The daemon must
# exit 0, and `edanalyze -verify` must accept the dataset and name both
# nodes in its per-server breakdown.
#
# Usage: scripts/cli_smoke.sh   (binds tcp 14661-14662, udp 14665-14666)
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
pid=
cleanup() {
    if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; fi
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/" ./cmd/edserverd ./cmd/edload ./cmd/edanalyze
ds="$tmp/ds"
"$tmp/edserverd" -mesh 2 -tcp 127.0.0.1:14661 -udp 127.0.0.1:14665 \
    -dataset "$ds" -gz -quiet &
pid=$!
# The nodes listen once the last one's TCP port accepts.
for _ in $(seq 100); do
    if (exec 3<>/dev/tcp/127.0.0.1/14662) 2>/dev/null; then break; fi
    sleep 0.1
done

"$tmp/edload" -addr 127.0.0.1:14661,127.0.0.1:14662 -clients 50 -quiet
kill -TERM "$pid"
wait "$pid"
pid=

"$tmp/edanalyze" -in "$ds" -verify > "$tmp/analyze.txt"
grep '^verified' "$tmp/analyze.txt"
sed -n '/per-server breakdown/,$p' "$tmp/analyze.txt"
for node in edserverd-0 edserverd-1; do
    if ! grep -Eq "^ +$node +[0-9]+ records" "$tmp/analyze.txt"; then
        echo "cli smoke: the per-server breakdown does not name $node" >&2
        exit 1
    fi
done
