# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Parameterized benchmark baseline: `make bench BENCH=BENCH_PR3.json`
# writes a new baseline without editing the Makefile.
BENCH ?= BENCH_PR7.json

.PHONY: all build test vet lint lint-json race chaos chaos-serve chaos-shard crash throughput zeroalloc read-bench fuzz bench cover experiments examples clean

all: vet test

build:
	$(GO) build ./...

# `make vet` is the whole static gate: the stock go vet suite plus
# anonylint, the project's multichecker (internal/lint) — pager
# confinement, determinism, panic policy, k-parameter validation,
# publish-freeze immutability, zero-alloc enforcement and error
# taxonomy (wrapping) hygiene.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/anonylint ./...

# anonylint alone, for quick iteration on lint findings.
lint:
	$(GO) run ./cmd/anonylint ./...

# anonylint with machine-readable output (one JSON object per finding),
# for CI annotation and tooling.
lint-json:
	$(GO) run ./cmd/anonylint -json ./...

# `make test` always vets first: the robustness layer threads errors
# through many call sites and vet's unused-result checks are cheap
# insurance. The packages carrying the parallel execution layer — and
# the concurrent serving layer over the durable store — rerun under
# the race detector on every test invocation: races there are
# correctness bugs in the determinism guarantee, not perf noise.
test: vet
	$(GO) test ./...
	$(GO) test -race ./internal/par ./internal/rplustree ./internal/mondrian ./internal/core ./internal/serve ./internal/shard ./internal/wal ./internal/lint/...

# Full suite under the race detector.
race:
	$(GO) test -race ./...

# The seeded fault-schedule harness (internal/verify), verbosely.
chaos:
	$(GO) test ./internal/verify/ -run 'TestChaos' -v

# The serve-level chaos matrix (internal/serve): seeded schedules of
# torn WAL writes, flaky fsyncs, checkpoint bit rot and bounded
# permanent faults against the full server, asserting it either
# degrades to read-only on its last audited epoch or resurrects to an
# audited k-safe state — never losing an acknowledged write, never
# serving an unaudited view.
chaos-serve:
	$(GO) test ./internal/serve/ -run 'TestChaosServeMatrix' -v

# The shard-level chaos matrix (internal/shard): fault injection
# confined to one victim shard per seed — flaky fsyncs, torn WAL
# writes, checkpoint bit rot, plus a crash at every durable operation —
# asserting sibling shards keep serving, cross-shard reads name the
# degraded range in a typed partial error, joint releases are withheld
# rather than served stale or under-k, and recovery restores exactly
# each shard's acknowledged prefix, deterministically. Runs under the
# race detector: shard routing is the concurrency seam of the fleet.
chaos-shard:
	$(GO) test -race ./internal/shard/ -run 'TestChaosShard' -v

# The WAL crash matrix: a churn workload crashed at every durable
# operation (each log append and checkpoint page write, with torn
# final frames) across a seed matrix, asserting recovery always
# converges to an audited, k-safe state (internal/wal). Covers both
# the per-op matrix and the group-commit matrix (torn multi-record
# batch frames must be all-or-nothing).
crash:
	$(GO) test ./internal/wal/ -run 'TestCrashMatrix' -v

# Quick serving-layer throughput smoke: the group-commit benchmark
# against the per-op baseline at a short benchtime — catches gross
# throughput regressions without a full bench sweep.
throughput:
	$(GO) test -run NONE -bench 'StorePerOpInsert|ServeGroupCommit|ServePublish|ServeReadsDuringWrites|ServePointQuery|ServeRangeQuery' -benchmem -benchtime 100ms ./internal/serve/

# Zero-alloc smoke: the warm read path (sessions, sfc key path,
# routing lookups) must report 0 allocs/op. These are regular tests
# built on testing.AllocsPerRun, so CI enforces the budget on every
# run; this target names them for quick local iteration.
zeroalloc:
	$(GO) test -run 'ZeroAlloc' -v ./internal/routing/ ./internal/query/ ./internal/serve/ ./internal/sfc/

# Targeted read-path benchmark run, merged into the committed baseline:
# re-measures the serving read benchmarks and the accelerator
# comparison without re-running the full figure sweep.
read-bench:
	$(GO) test -run NONE -bench 'ReadPoint|ReadRange|ReadEstimate|RoutingBuild|QuantizerKey|ServeReadsDuringWrites|ServePointQuery|ServeRangeQuery' -benchmem -count=3 ./internal/query/ ./internal/sfc/ ./internal/serve/ 2>&1 | tee read_bench_output.txt
	$(GO) run ./cmd/benchjson -in read_bench_output.txt -merge $(BENCH) -o $(BENCH)

# Short fuzz passes over the dataset codecs, the WAL record decoder,
# the routing and shard lookups, the Lemma-1 audit against its
# string-keyed oracle, and copy-on-write leaf snapshots against a full
# copy.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzReadCSV -fuzztime=30s ./internal/dataset/
	$(GO) test -run=NONE -fuzz=FuzzReadBinary -fuzztime=30s ./internal/dataset/
	$(GO) test -run=NONE -fuzz=FuzzDecode -fuzztime=30s ./internal/wal/
	$(GO) test -run=NONE -fuzz=FuzzLookupVsLinear -fuzztime=30s ./internal/routing/
	$(GO) test -run=NONE -fuzz=FuzzShardRouting -fuzztime=30s ./internal/shard/
	$(GO) test -run=NONE -fuzz=FuzzReleases -fuzztime=30s ./internal/verify/
	$(GO) test -run=NONE -fuzz=FuzzSnapshotLeaves -fuzztime=30s ./internal/rplustree/

# Full figure + ablation benchmark sweep, 3 runs per benchmark for
# variance. The raw log lands in bench_output.txt; the parsed baseline
# (committed alongside the code) in $(BENCH).
bench:
	$(GO) test -run NONE -bench . -benchmem -count=3 ./... 2>&1 | tee bench_output.txt
	$(GO) run ./cmd/benchjson -in bench_output.txt -o $(BENCH)

cover:
	$(GO) test -cover ./...

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/experiments -fig all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/hospital
	$(GO) run ./examples/streaming
	$(GO) run ./examples/workload

clean:
	rm -f test_output.txt bench_output.txt read_bench_output.txt
