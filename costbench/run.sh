#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash costbench/run.sh --workload pmd-auto --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# toolchain's own state all stay under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/costbench" && go build -o "$out/costbench" .)
exec "$out/costbench" "$@"
