#!/usr/bin/env bash
# Builds the benchmark and cmd/serve from the checkout it is run in, then
# runs one workload. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload score --seed 1 --seconds 8 --trace 0
#
# Everything it builds, caches and writes stays under .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repository checkout (go.mod, cmd/serve and perfbench/ are needed)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/runs"
# XDG_CONFIG_HOME moves the go command's telemetry counters and env file
# into the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off CGO_ENABLED=0

go build -C perfbench -o "$out/perfbench" .
go build -o "$out/serve" ./cmd/serve

# The generator side (this harness) runs on the first online CPU; the
# harness pins the server, or the train child, to a CPU outside its own
# affinity. With one CPU both share it, and the report says so.
cpu=$(cut -d, -f1 /sys/devices/system/cpu/online | cut -d- -f1)
pin=()
if [[ $(getconf _NPROCESSORS_ONLN) -ge 2 ]] && command -v taskset >/dev/null; then
	pin=(taskset -c "$cpu")
fi
exec "${pin[@]}" "$out/perfbench" -serve "$out/serve" -dir "$out/runs" "$@"
