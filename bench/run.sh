#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Build outputs, the Go build cache and traces stay under
# .bench_build/ at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
