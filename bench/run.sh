#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source into
# the checkout's .bench_build/ (binary, Go build cache, temp files and
# the toolchain's own state all stay inside the checkout), then run it
# with the pipeline's flags. Run from the repository root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOTOOLCHAIN=local GOENV=off GOFLAGS=
go -C "$root/bench" build -o "$build/jitsu-bench" .
exec "$build/jitsu-bench" "$@"
