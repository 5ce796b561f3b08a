.PHONY: check test bench bench-e2e-compare bench-fold audit chaos trace

# Tier-1 gate: gofmt + vet + build + race-enabled tests + non-race alloc
# gates + one-iteration smoke runs of the internal/core snapshot, reclassify,
# binding-update, columnar fold and columnar classify benchmarks (their
# b.Fatal fixture guards) + 10 s fuzz
# smoke runs (FuzzNumKernel, FuzzTriKernel, FuzzReplicaRange, FuzzResume,
# FuzzColumnarEncode, FuzzColumnarFold)
# + the benchmark/ module's vet and tests + a small-scale flbench smoke run
# (with one 36-schedule rotation of the chaos soak)
# + the audit gate: the regenerated audit must equal BENCH_accuracy.json
# byte for byte (a change that moves the estimator stream on purpose
# commits the file `make audit` regenerates).
check:
	sh scripts/check.sh

test:
	go test ./...

# End-to-end benchmark (BENCHMARK.json, benchmark/README.md): SQL text →
# first answer → target error → exact answer on five workloads. Pick one
# with ARGS="--workload q18_membership --seed 1 --seconds 12 --trace 0";
# --trace 1 prints the per-layer split, --out FILE keeps the result.
bench:
	bash benchmark/run.sh $(ARGS)

# The before/after a perf PR reports: hold two --out files against the
# bounds of BENCHMARK.json (make bench-e2e-compare A=parent.json B=change.json).
bench-e2e-compare:
	bash benchmark/run.sh --compare $(A) --against $(B)

# Fold hot-path throughput: internal/core's go test micro-benchmarks.
bench-fold:
	go test ./internal/core -bench BenchmarkFold -benchmem

# Statistical-correctness audit: 20 seeded replications measuring
# empirical CI coverage, relative-error trajectories, and the
# deterministic-set invariant; regenerates BENCH_accuracy.json.
audit:
	go run ./cmd/flbench -experiment audit $(ARGS)

# Robustness soak: 1000+ deterministically seeded fault schedules
# (worker panics, stragglers, stage corruption, segment-cache drops)
# against the chaos-hardened runtime; every run must be bit-identical to its
# fault-free reference, every checkpoint round-trip byte-identical, and
# no goroutine may leak. Scale with ARGS="-schedules 5000". `make check`
# runs one rotation of it (36 schedules).
chaos:
	go run ./cmd/flbench -experiment chaos $(ARGS)

# Span-timeline capture: run one traced suite query (default Q17) and
# write trace.jsonl (the structured G-OLA event ring) plus trace.json
# (Chrome trace-event format — open in ui.perfetto.dev or
# chrome://tracing), whose instants are the same ring events. Pick a
# query with ARGS="-tracequery SBI".
trace:
	go run ./cmd/flbench -spans trace.json -trace trace.jsonl $(ARGS)
