#!/usr/bin/env bash
# Builds the served-path benchmark from source and runs it with the given
# flags. Run it from the repository root, for example:
#
#   bash benchmark/run.sh --workload hot-query --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh -seed 1 -out /tmp/bench        # all four workloads
#
# The Go build cache, temporary build files and the binary stay under
# .bench_build/ in the current directory, and nothing is downloaded: the
# benchmark module depends only on the repository module next to it.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd benchmark && go build -buildvcs=false -o "$build/servedbench" .)
exec "$build/servedbench" "$@"
