#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload session --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Build cache, Go temporary files and
# the binary stay under .bench_build/ there.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	XDG_CACHE_HOME="$out/home" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off GOPROXY=off GOSUMDB=off
go -C "$here" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
