#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given flags. Run from the repository root:
#
#   bash bench/run.sh --workload report-full --seed 1 --seconds 12 --trace 0
#
# The Go build cache, the binary and every scratch file stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOENV=off
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
