#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, from the
# repository root:
#
#   bash mcpatbench/run.sh --workload dse-warm --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and temporaries stay in .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C mcpatbench build -o "$out/mcpatbench" .
exec "$out/mcpatbench" "$@"
