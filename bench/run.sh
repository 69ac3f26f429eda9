#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload fleet-churn --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build output, the Go build cache
# and the trace files stay under .bench_build in the current directory, so
# nothing outside the checkout is read or written apart from the Go
# toolchain itself.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" # Go telemetry counters live here
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

go -C bench build -o "$build/everest-bench" .
exec "$build/everest-bench" "$@"
