#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments from the checkout's root. Every build product, cache
# and scratch file stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload tvca-paper --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --snapshot check
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOFLAGS= GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
