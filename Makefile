# SAIs reproduction — convenience targets.

GO ?= go

.PHONY: all build vet lint lint-fixtures test race race-short bench bench-record bench-check experiments figures chaos policymatrix scenarios chaos-soak cover clean

all: build vet lint test race-short scenarios bench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (DESIGN.md §11 and §16): build the
# saisvet facts engine, then run its nine analyzers (simdeterminism,
# seedderive, unitsafety, closecheck, allocfree, shardsafety,
# hookcontract, jsonstability, waiverhygiene) over the whole module
# through the standard `go vet -vettool` protocol, with cross-package
# facts riding the vetx channel. Keep this warn-free — CI fails hard on
# any finding. The binary is a file target so an unchanged analyzer
# tree (e.g. restored from the CI cache) skips the rebuild.
SAISVET := .bin/saisvet
SAISVET_SRC := $(shell find cmd/saisvet internal/lint -name '*.go' -not -name '*_test.go') go.mod
LINTFLAGS ?= -strict-waivers

$(SAISVET): $(SAISVET_SRC)
	$(GO) build -o $(SAISVET) ./cmd/saisvet

lint: $(SAISVET)
	$(GO) vet -vettool=$(SAISVET) $(LINTFLAGS) ./...

# Analyzer self-tests: the per-analyzer fixture suites plus the driver's
# protocol tests (facts round-trip, VetxOnly semantics, output formats,
# and the real-vet cross-package run).
lint-fixtures:
	$(GO) test ./internal/lint/... ./cmd/saisvet

test:
	$(GO) test ./...

# Full race-detector pass over every package (slow).
race:
	$(GO) test -race ./...

# Short race pass of the orchestration-critical packages (the worker
# pool, the fault injector, their heaviest consumer, the span/trace
# recorder they share, and the sharded executor with its cluster-level
# differential tests under parallel workers); cheap enough to run in
# `all`.
race-short:
	$(GO) test -race ./internal/runner ./internal/faults ./experiments ./internal/trace ./internal/shard
	$(GO) test -race -run 'TestSharded' ./cluster

# Record the canonical outputs the repository ships with.
test-output:
	$(GO) test ./... 2>&1 | tee test_output.txt

bench:
	$(GO) test -bench=. -benchmem ./...

bench-output:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Benchmark baseline: the event-engine hot path, the core run queue
# (cpu) and the interrupt steer-and-deliver path (apic), plus the
# sharded executor's 256-node scaling matrix. bench-record snapshots the
# current numbers into BENCH_sim.json (commit it); bench-check compares
# a fresh run against the committed baseline and fails the build on a
# regression beyond each benchmark's tolerance band (hand-editable in
# the baseline; the sharded macro-benchmarks carry wider bands than the
# steady microbenchmarks).
BENCH_COUNT ?= 5
SHARD_BENCH_COUNT ?= 3

bench-record:
	{ $(GO) test -run '^$$' -bench EngineHot -benchmem -count $(BENCH_COUNT) ./internal/sim ; \
	  $(GO) test -run '^$$' -bench HybridMillionUsers -benchmem -count $(BENCH_COUNT) ./internal/flowsim ; \
	  $(GO) test -run '^$$' -bench CoreSubmit -benchmem -count $(BENCH_COUNT) ./internal/cpu ; \
	  $(GO) test -run '^$$' -bench IOAPICRaise -benchmem -count $(BENCH_COUNT) ./internal/apic ; \
	  $(GO) test -run '^$$' -bench ShardedScaling -benchmem -count $(SHARD_BENCH_COUNT) . ; } \
	| $(GO) run ./cmd/benchcheck -record BENCH_sim.json

bench-check:
	{ $(GO) test -run '^$$' -bench EngineHot -benchmem -count $(BENCH_COUNT) ./internal/sim ; \
	  $(GO) test -run '^$$' -bench HybridMillionUsers -benchmem -count $(BENCH_COUNT) ./internal/flowsim ; \
	  $(GO) test -run '^$$' -bench CoreSubmit -benchmem -count $(BENCH_COUNT) ./internal/cpu ; \
	  $(GO) test -run '^$$' -bench IOAPICRaise -benchmem -count $(BENCH_COUNT) ./internal/apic ; \
	  $(GO) test -run '^$$' -bench ShardedScaling -benchmem -count $(SHARD_BENCH_COUNT) . ; } \
	| $(GO) run ./cmd/benchcheck -baseline BENCH_sim.json -strict

# Regenerate every figure of the paper (tables to stdout).
experiments:
	$(GO) run ./cmd/experiments

figures:
	$(GO) run ./cmd/experiments -plot

# Degraded-mode studies: the scripted crash-and-recover scenario across
# policies (see also `-degraded` for the loss-rate sweep).
chaos:
	$(GO) run ./cmd/experiments -chaos

# Policy × workload matrix: strip-latency percentiles and the reorder
# metric for every policy in the irqsched registry.
policymatrix:
	$(GO) run ./cmd/experiments -policymatrix -parallel 8

# Tier-1 scenario gate: run every committed scenario file, on one
# engine and on four shards, evaluating assertions and the runtime
# invariant suite (internal/scenario). Nonzero exit on any violation.
scenarios:
	$(GO) build -o .bin/saisim ./cmd/saisim
	.bin/saisim run scenarios/*.json
	.bin/saisim run -shards 4 scenarios/*.json

# Chaos soak: N derived chaos timelines against the invariant suite.
# One root seed reproduces the whole soak (`make chaos-soak N=50
# SOAK_SEED=7`).
N ?= 20
SOAK_SEED ?= 1

chaos-soak:
	$(GO) build -o .bin/saisim ./cmd/saisim
	.bin/saisim chaos -n $(N) -seed $(SOAK_SEED)

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
