#!/usr/bin/env bash
# Builds the benchmark from source and runs it once, from the root of a
# clustersim checkout:
#
#   bash perfbench/run.sh --workload paper|stream|serve --seed N --seconds S --trace 0|1
#
# Build outputs, the Go build cache and every temp file stay under
# .bench_build in the checkout. The measured run is a fresh process at
# GOMAXPROCS=1.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
GOMAXPROCS=1 exec "$out/perfbench" --workdir "$out" "$@"
