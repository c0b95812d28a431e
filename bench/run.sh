#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds pasperf from the tree and
# runs it with the arguments given. The Go build cache, temporary files
# and the toolchain's telemetry counters (XDG_CONFIG_HOME) are kept
# inside the checkout, so the benchmark writes nowhere else; the first
# run in a fresh checkout compiles the standard library into it.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp"
export GOTOOLCHAIN=local XDG_CONFIG_HOME="$PWD/.bench_build/config"
mkdir -p .bench_build/bin .bench_build/tmp
go build -C bench -o ../.bench_build/bin/pasperf ./pasperf
exec .bench_build/bin/pasperf "$@"
