#!/bin/sh
# Entry point named by BENCHMARK.json: builds the harness from source
# inside the checkout, then runs it with the arguments given. Everything
# the build and the run write stays under the checkout: the Go build
# cache and the binary in .bench_build/, trace files and scratch data
# dirs in benchmark/out/.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
bin="$build/benchmark"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$GOCACHE" "$GOTMPDIR"
# Rebuild only when a source file is newer than the binary.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -name .bench_build -prune -o \
	\( -name '*.go' -o -name go.mod \) -newer "$bin" -print | head -n 1)" ]; then
	(cd "$here" && go build -o "$bin" .) >&2
fi
exec "$bin" -outdir "$here/out" "$@"
