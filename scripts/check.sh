#!/bin/sh
# Tier-1 gate: everything a PR must keep green.
#
#   go vet          static checks
#   go build        the whole tree compiles
#   go test -race   the full suite under the race detector — every
#                   determinism, replay, checkpoint, chaos, ledger,
#                   span, audit and conformance test runs here
#   alloc gates     go test ./internal/core -run Allocs without -race:
#                   race instrumentation allocates, so the allocation
#                   gates (steady-state fold, parallel batch feed,
#                   columnar sweeps, ledger collection) skip themselves
#                   under it and need this one plain run; the fold gates
#                   run plain and "profiled" (Options.Profile: event
#                   ring and span timeline attached), and the steady-state
#                   fold also "spanned" (a span recorded around each
#                   fold), 0 allocs/row each; the keyed tri-state legs
#                   (correlated, in-set) and the reclassify legs hold
#                   classification of new and cached rows to 0 too
#   fuzz smoke      10 s each of FuzzNumKernel (computed aggregate-
#                   argument columns vs per-row Eval) and FuzzTriKernel
#                   (tri-state kernel bytes, keyed slots included, vs
#                   evalTri), on generated trees and data
#   benchmark/      the end-to-end benchmark is a nested module that
#                   imports internal/core but is invisible to the root
#                   ./... patterns; its tests are the only thing that
#                   notices an engine API change breaking it
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

echo "== alloc gates (go test ./internal/core -run Allocs, no -race)"
go test ./internal/core -run Allocs -count=1

echo "== fuzz smoke (FuzzNumKernel, FuzzTriKernel, 10s each)"
go test ./internal/expr -run '^$' -fuzz FuzzNumKernel -fuzztime 10s
go test ./internal/core -run '^$' -fuzz FuzzTriKernel -fuzztime 10s

echo "== benchmark module (cd benchmark && go test ./...)"
(cd benchmark && go test ./...)

echo "== check OK"
