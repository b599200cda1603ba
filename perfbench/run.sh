#!/usr/bin/env bash
# Builds the whole-job benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload selective --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, the per-run
# work directory (removed on exit) and the span files of traced runs.
set -euo pipefail

if [[ ! -f go.mod || ! -f manimal.go || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a manimal checkout (sources not found)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd perfbench && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"
