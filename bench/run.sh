#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the repository root) and runs it there with the given arguments.
# The Go build cache and temporary files live in .bench_build/ too, so a run
# reads and writes nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
go build -C "$here" -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/bench" .
exec "$build/bench" "$@"
