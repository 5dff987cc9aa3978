#!/bin/sh
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (Go's build cache included, so nothing is written outside the
# checkout) and runs it from benchmark/ with the arguments given.
set -eu
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
go build -o "$build/pa-bench" .
exec "$build/pa-bench" "$@"
