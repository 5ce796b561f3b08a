#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout.
# Everything the go tool writes (build cache, binary) stays under
# .bench_build/ in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
FLUODB_BENCH_COMMIT=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
export FLUODB_BENCH_COMMIT
(cd "$here" && go build -o "$build/fluodb-benchmark" .)
cd "$root"
exec "$build/fluodb-benchmark" "$@"
