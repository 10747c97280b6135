#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Run from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload sweep --seed 3 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the toolchain's temporary files, the binary,
# and the job directories of serve_batch.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
