#!/bin/bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given. Everything the Go toolchain writes (build cache,
# temporary files, the binary) stays in .bench_build inside the
# checkout; nothing is read from the user's Go environment.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/alae-bench" ./bench
exec "$build/alae-bench" "$@"
