#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command: builds the benchmark from source
# into .bench_build/ at the root of the checkout (the Go build cache too, so
# nothing is written outside the checkout) and runs it with the given flags.
# Scratch data and span files go to bench/out/. By hand: see README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -C "$here" -o "$build/dvodbench" .
exec "$build/dvodbench" -dir "$here/out" "$@"
