#!/bin/sh
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, from the root of the checkout:
#
#   sh perfbench/run.sh --workload cpu-golden --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# working directory.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
