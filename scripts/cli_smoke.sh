#!/usr/bin/env bash
# cli_smoke.sh — the commands end to end. First a simulated capture whose
# kernel buffer overflows (`edsim -bufkb 4 -service 40`) with a pcap tee:
# it must report losses, and `edanalyze -pcap` must replay the tee with
# the same captured count and none lost. Then a simulated capture of the
# spec examples/specs/smokeday.json: it must play sessions and fire the
# spec's release, and `edanalyze -verify -windows 4` must accept its
# dataset and print the same over a copy whose manifest lacks max_t.
# Last, the daemon on fixed loopback ports: one `edserverd` under a gzip
# self-capture, loaded by `edload -clients 50` and stopped with SIGTERM.
# The daemon must exit 0, and `edanalyze -verify` must accept the dataset
# with a nonzero record count and print no per-server breakdown (one
# server's records carry no provenance tag).
#
# Usage: scripts/cli_smoke.sh   (binds tcp 14661, udp 14665)
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
pid=
cleanup() {
    if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; fi
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/" ./cmd/edserverd ./cmd/edload ./cmd/edanalyze ./cmd/edsim

# ethernet_line FILE prints the "captured lost" pair of a report's
# `ethernet: N captured, M lost` line.
ethernet_line() {
    sed -n 's/^ethernet: \([0-9]*\) captured, \([0-9]*\) lost$/\1 \2/p' "$1"
}
"$tmp/edsim" -weeks 0.002 -clients 300 -files 2000 -bufkb 4 -service 40 \
    -figures=false -tee "$tmp/lossy.pcap" > "$tmp/sim.txt"
"$tmp/edanalyze" -pcap "$tmp/lossy.pcap" -server 192.168.0.1 > "$tmp/replay.txt"
read -r sim_captured sim_lost <<< "$(ethernet_line "$tmp/sim.txt")"
read -r replay_captured replay_lost <<< "$(ethernet_line "$tmp/replay.txt")"
echo "lossy capture: $sim_captured captured, $sim_lost lost; replay: $replay_captured captured, $replay_lost lost"
if [ -z "$sim_lost" ] || [ "$sim_lost" -eq 0 ]; then
    echo "cli smoke: the starved simulated capture reports no losses" >&2
    exit 1
fi
if [ "$replay_captured" != "$sim_captured" ] || [ "$replay_lost" != 0 ]; then
    echo "cli smoke: the replay of the capture's tee does not capture what it did, losslessly" >&2
    exit 1
fi

"$tmp/edsim" -spec examples/specs/smokeday.json -figures=false -out "$tmp/spec" > "$tmp/spec.txt"
read -r sessions releases <<< "$(sed -n 's/^sessions: \([0-9]*\), releases fired: \([0-9]*\)$/\1 \2/p' "$tmp/spec.txt")"
echo "spec capture: ${sessions:-no} sessions, ${releases:-no} releases fired"
if [ -z "$sessions" ] || [ "$sessions" -eq 0 ] || [ "$releases" != 1 ]; then
    echo "cli smoke: edsim -spec did not play the spec's sessions and its release" >&2
    exit 1
fi
"$tmp/edanalyze" -in "$tmp/spec" -verify -windows 4 > "$tmp/windows.txt"
grep '^verified' "$tmp/windows.txt"
# A manifest without max_t, as a writer that did not record it left it,
# is read with a pre-pass for the span, to the same output.
cp -r "$tmp/spec" "$tmp/spec-old"
grep -v '^  "max_t": ' "$tmp/spec/manifest.json" > "$tmp/spec-old/manifest.json"
if cmp -s "$tmp/spec/manifest.json" "$tmp/spec-old/manifest.json"; then
    echo "cli smoke: the spec capture's manifest has no max_t" >&2
    exit 1
fi
"$tmp/edanalyze" -in "$tmp/spec-old" -verify -windows 4 > "$tmp/windows-old.txt"
cmp "$tmp/windows.txt" "$tmp/windows-old.txt"
echo "spec capture: -verify -windows 4 prints the same with and without max_t"

ds="$tmp/ds"
"$tmp/edserverd" -tcp 127.0.0.1:14661 -udp 127.0.0.1:14665 \
    -dataset "$ds" -gz -quiet &
pid=$!
# The daemon listens once its TCP port accepts.
for _ in $(seq 100); do
    if (exec 3<>/dev/tcp/127.0.0.1/14661) 2>/dev/null; then break; fi
    sleep 0.1
done

"$tmp/edload" -addr 127.0.0.1:14661 -clients 50 -quiet
kill -TERM "$pid"
wait "$pid"
pid=

"$tmp/edanalyze" -in "$ds" -verify > "$tmp/analyze.txt"
records="$(sed -n 's/^verified: all spec invariants hold over \([0-9]*\) records$/\1/p' "$tmp/analyze.txt")"
echo "self-capture: ${records:-no} records verified"
if [ -z "$records" ] || [ "$records" -eq 0 ]; then
    echo "cli smoke: edanalyze -verify did not accept a nonempty self-capture dataset" >&2
    exit 1
fi
if grep -q 'per-server breakdown' "$tmp/analyze.txt"; then
    echo "cli smoke: a one-server capture printed a per-server breakdown" >&2
    exit 1
fi
