#!/bin/sh
# Tier-1 gate: everything a PR must keep green.
#
#   gofmt           no tracked Go file differs from gofmt's output
#   go vet          static checks
#   go build        the whole tree compiles
#   go test -race   the full suite under the race detector, in shuffled
#                   order (-shuffle=on: a test that leans on another's
#                   leftover state fails; go test prints the seed, and
#                   -shuffle=<seed> replays the order) — every
#                   determinism, replay, checkpoint, chaos, ledger,
#                   span, audit and conformance test runs here; the
#                   colstore encoder tests force GOMAXPROCS 2, so the
#                   segment-parallel encode runs under the race detector
#                   on a 1-vCPU runner too
#   alloc gates     go test ./internal/core -run Allocs without -race:
#                   race instrumentation allocates, so the allocation
#                   gates (steady-state fold, parallel batch feed,
#                   columnar sweeps, ledger collection) skip themselves
#                   under it and need this one plain run; the fold gates
#                   run plain and "profiled" (Options.Profile: event
#                   ring and span timeline attached), and the steady-state
#                   fold also "spanned" (a span recorded around each
#                   fold), 0 allocs/row each, the columnar legs over
#                   every shape the fold kernel serves (scalar, grouped,
#                   computed, multi-source, dims); the keyed tri-state legs
#                   (correlated, in-set) and the reclassify legs hold
#                   classification of new and cached rows to 0 too,
#                   the prepare legs a warm snapshot evaluator's
#                   rebuild (point pass by kernel included), and
#                   TestBindingUpdateAllocs (legs set-having and
#                   correlated) a warm republication of a membership or
#                   correlated binding, by group id, to 0 allocs;
#                   TestSnapshotAllocs holds a snapshot to a fixed
#                   handful on the Q18 membership shape and on SBI's
#                   global AVG (the trial sweep's column-vs-scalar
#                   compare by ordinal), nothing per cached row
#   bench smoke     one iteration (-benchtime 1x) of the internal/core
#                   BenchmarkSnapshot*, BenchmarkReclassify*,
#                   BenchmarkUpdateBinding*, BenchmarkFoldColumnar* and
#                   BenchmarkClassifyColumnar benchmarks: nothing is
#                   timed, but their fixture guards (b.Fatal on "no
#                   cached uncertain rows", "did not compile to a tri
#                   kernel", "bench query must sweep columnar with an
#                   uncertain predicate", "bench WHERE must compile")
#                   run, so a fixture that stops exercising its path
#                   fails here instead of measuring nothing
#   fuzz smoke      10 s each of FuzzNumKernel (computed aggregate-
#                   argument columns vs per-row Eval), FuzzTriKernel
#                   (tri-state kernel bytes, keyed slots included, vs
#                   evalTri, and the bytes the same kernel decides under
#                   the point environment — every parameter at its point
#                   estimate as a zero-width range — vs the SQL truth
#                   under those points), on generated trees and data,
#                   FuzzReplicaRange (the replica and CLT range
#                   builders over generated points, replicas and
#                   accumulators: before completion never NULL, and an
#                   OK range has enough finite evidence, a width above
#                   the hairline and contains its point),
#                   FuzzResume (mutated, re-signed checkpoint bytes
#                   end in a resumed engine or a typed checkpoint error,
#                   never a panic), FuzzColumnarEncode (Build and
#                   Update over generated rows, field for field against
#                   the column-at-a-time reference encoder, at GOMAXPROCS
#                   1 and 2) and FuzzColumnarFold (generated COUNT/SUM/AVG
#                   lists over columns, constants and computed arguments,
#                   scalar or grouped, with and without a fanning-out dim
#                   join, over tables with independent NULL patterns:
#                   the columnar fold kernel's snapshots bit for bit
#                   against the row path at P 1 and 2)
#   benchmark/      the end-to-end benchmark is a nested module that
#                   imports internal/core but is invisible to the root
#                   ./... patterns; go vet and its tests there are the
#                   only things that notice an engine API change
#                   breaking it
#   flbench smoke   the evaluation CLI's dispatch end to end at a small
#                   scale: -experiment all (fig3a, fig3b, t2), fig3b as
#                   CSV, and the trace dispatch (-trace <tmp>.jsonl
#                   -spans <tmp>.json -tracequery Q18: the event ring as
#                   JSONL and the span timeline as validated Chrome
#                   JSON), and the chaos soak's dispatch (-experiment
#                   chaos -schedules 36: one full rotation of the six
#                   fault profiles × three modes × two queries, every
#                   schedule bit-identical to its fault-free row-path
#                   reference); nothing else runs through its flag
#                   handling and experiment switch
#   audit gate      the estimator stream: the statistical audit
#                   (flbench -experiment audit) regenerated into a temp
#                   file must equal the committed BENCH_accuracy.json
#                   byte for byte; a change that moves the stream on
#                   purpose commits the regenerated file (make audit)
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
test -z "$(gofmt -l $(git ls-files '*.go'))"

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

echo "== alloc gates (go test ./internal/core -run Allocs, no -race)"
go test ./internal/core -run Allocs -count=1

echo "== bench smoke (BenchmarkSnapshot|BenchmarkReclassify|BenchmarkUpdateBinding|BenchmarkFoldColumnar|BenchmarkClassifyColumnar, 1 iteration)"
go test ./internal/core -run '^$' -bench 'BenchmarkSnapshot|BenchmarkReclassify|BenchmarkUpdateBinding|BenchmarkFoldColumnar|BenchmarkClassifyColumnar' -benchtime 1x

echo "== fuzz smoke (FuzzNumKernel, FuzzTriKernel, FuzzReplicaRange, FuzzResume, FuzzColumnarEncode, FuzzColumnarFold, 10s each)"
go test ./internal/expr -run '^$' -fuzz FuzzNumKernel -fuzztime 10s
go test ./internal/core -run '^$' -fuzz FuzzTriKernel -fuzztime 10s
go test ./internal/core -run '^$' -fuzz FuzzReplicaRange -fuzztime 10s
go test ./internal/core -run '^$' -fuzz FuzzResume -fuzztime 10s
go test ./internal/colstore -run '^$' -fuzz FuzzColumnarEncode -fuzztime 10s
go test ./internal/core -run '^$' -fuzz FuzzColumnarFold -fuzztime 10s

echo "== benchmark module (cd benchmark && go vet ./... && go test ./...)"
(cd benchmark && go vet ./...)
(cd benchmark && go test ./...)

echo "== flbench smoke (-experiment all, fig3b -format csv, -trace Q18; 4000 rows; chaos, 36 schedules)"
go run ./cmd/flbench -experiment all -rows 4000 -batches 4 -trials 8 >/dev/null
go run ./cmd/flbench -experiment fig3b -format csv -rows 4000 -batches 4 -trials 8 >/dev/null
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/flbench -trace "$tmp/trace.jsonl" -spans "$tmp/trace.json" -tracequery Q18 -rows 4000 -batches 4 -trials 8 >/dev/null
go run ./cmd/flbench -experiment chaos -schedules 36 >/dev/null

echo "== audit gate (flbench -experiment audit must reproduce BENCH_accuracy.json)"
go run ./cmd/flbench -experiment audit -json "$tmp/acc.json" >/dev/null
cmp "$tmp/acc.json" BENCH_accuracy.json

echo "== check OK"
