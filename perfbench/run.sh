#!/usr/bin/env bash
# Builds the pipeline benchmark from the sources in this checkout and
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sweep|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The Go build cache, the binary, the
# benchmark's scratch files, traces and result records all live under
# .bench_build/ there, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
