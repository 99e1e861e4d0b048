#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments (see perfbench/README.md). Run from the repository
# root:
#
#   bash perfbench/run.sh --workload kron-dense --seed 1 --seconds 15 --trace 0
#
# Build products and the Go build cache stay under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local CGO_ENABLED=0
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
export PERFBENCH_OUT="$out"
exec "$out/perfbench" "$@"
