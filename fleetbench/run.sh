#!/usr/bin/env bash
# Builds the fleet benchmark from the checkout it sits in and runs it.
# Run from the repository root:
#
#   bash fleetbench/run.sh --workload zipf-hits --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build): the Go build
# cache, the binary, the child processes' scratch and the span dump.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
go -C fleetbench build -o "$out/fleetbench" . >&2
exec "$out/fleetbench" -out "$out" "$@"
