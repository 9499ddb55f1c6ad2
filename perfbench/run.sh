#!/usr/bin/env bash
# Builds the benchmark and epserve from the checkout it is run in, then
# runs the benchmark with the arguments given. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, temporary files and the go command's
# own configuration directory included.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off

# Go telemetry off: in its default "local" mode the go command starts a
# detached telemetry process (its own session) that outlives the build.
mkdir -p "$build/config/go/telemetry"
echo off > "$build/config/go/telemetry/mode"

go build -o "$build/bin/epserve" ./cmd/epserve >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" --epserve "$build/bin/epserve" --out "$build/perfbench" "$@"
