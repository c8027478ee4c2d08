GO ?= go

.PHONY: all build test race vet bench bench-assign bench-predict bench-test bench-e2e perfcheck memocheck benchguard benchguard-allocs chaos cluster cluster-smoke replay fuzz-smoke matrix matrix-check matrix-identical staticcheck fmt fmt-check ci

all: build test

build:
	$(GO) build ./...

# The full suite, including the goroutine-leak check on server shutdown
# (TestListenAndServeShutdownLeaksNoGoroutines) and the checkpoint
# kill-and-resume bit-identity tests.
test:
	$(GO) test ./...

# Full suite under the race detector; the concurrency core (internal/par)
# and everything layered on it must stay race-clean.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Quick-scale benchmarks, including the parallel-vs-sequential speedup
# benches (BenchmarkTrainParallel / BenchmarkSimulateParallel), then refresh
# the NN kernel before/after record (baseline is preserved across runs).
bench:
	$(GO) test -run XXX -bench . -benchmem .
	$(GO) run ./cmd/tampbench -json BENCH_nn.json

# Batch-assignment benchmarks (candidate-pair kernel + sparse KM) at 500×500
# to 5k×5k, then refresh BENCH_assign.json. A fresh file records the
# exhaustive scan (assign.WithBruteScan) as the baseline, so the committed
# record shows the speedup the task grid buys.
bench-assign:
	$(GO) test ./internal/assign -run XXX -bench 'BenchmarkAssign' -benchmem
	$(GO) run ./cmd/tampbench -assign-json BENCH_assign.json

# Prediction-engine benchmarks: forecast-cache hit path, allocation-free
# rollouts, and the end-to-end stationary-workload simulate. Refreshes
# BENCH_predict.json; a fresh file measures the replaced path
# (recompute-every-call forecasts) interleaved with the current one and
# records it as the baseline, so the committed record shows what the engine
# buys.
bench-predict:
	$(GO) run ./cmd/tampbench -predict-json BENCH_predict.json

# The end-to-end benchmark lives in a nested module (bench/go.mod) the root
# `go test ./...` does not see. bench-test vets it and runs its unit tests
# (the estimators and the BENCHMARK.json contract; starts no workload) and is
# blocking in CI; bench-e2e runs the four workloads themselves (≈ 2 min, see
# bench/README.md) and prints the metrics BENCHMARK.json declares.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench-e2e:
	bash bench/run.sh

# `go test -run 'A|B'` passes when B no longer names a test. The gates below
# that pick tests by name go through this helper, which first fails if any
# |-alternative selects nothing (scripts/gotest-run.sh PKG PATTERN [flags]).
GOTEST_RUN = GO="$(GO)" scripts/gotest-run.sh

# Allocation-regression gate: the warmed NN hot path (Predict/Grad/BatchGrad
# at any batch size, plus Adam.Step) must stay at 0 allocs/op, the
# warmed sparse-KM matcher must stay at 0 allocs per Match, a warmed
# Workspace must carry a 2k×2k PPI or KM batch through the candidate-pair
# kernel on a small constant number of allocations, and the warmed
# prediction engine (PredictFutureInto, EvaluateOnRoutine, cache hits) must
# stay at 0 allocs per call.
perfcheck:
	$(GOTEST_RUN) ./internal/nn 'AllocFree' -v
	$(GOTEST_RUN) ./internal/assign 'TestMatcherSteadyStateAllocFree|TestMatcherAllocsDoNotGrowWithBatches|TestSortPendingAllocFree|TestKernelSteadyStateAllocs' -v
	$(GOTEST_RUN) ./internal/predict 'TestPredictFutureIntoZeroAlloc|TestEvaluateOnRoutineZeroAlloc|TestCacheHitZeroAlloc' -v

# Forecast-memo gate, exact and timing-free, blocking in CI beside perfcheck:
# train once at smoke size, simulate twice under PPI over the same
# Predictors; the second pass must roll out nothing (every lookup found in
# the memo the trained set owns) and return the first pass's metrics.
memocheck:
	$(GOTEST_RUN) . 'TestSecondSimulateRollsNothingOut' -v

# Benchmark-regression gate: re-run the NN kernel, batch-assignment, and
# prediction-engine suites (tampbench pins them to GOMAXPROCS 1) and compare
# against the `current` rows of the committed BENCH_nn.json /
# BENCH_assign.json / BENCH_predict.json. Fails on >25% ns/op growth, any
# allocs/op growth, or a committed row that no longer runs. Timing on shared
# runners is noisy — CI runs this as a non-blocking step; treat a local
# failure on an idle machine as real. BENCHGUARD_FLAGS carries extra
# tampbench flags (CI passes the three artifact files through it).
BENCHGUARD = $(GO) run ./cmd/tampbench -check BENCH_nn.json -check-assign BENCH_assign.json -check-predict BENCH_predict.json
benchguard:
	$(BENCHGUARD) -tolerance 0.25 $(BENCHGUARD_FLAGS)

# The same guard with the timing rule switched off: only the exact allocs/op
# rule and the missing-row rule can fail, neither of which a busy host
# moves. Blocking in CI.
benchguard-allocs:
	$(BENCHGUARD) -tolerance 1e9 $(BENCHGUARD_FLAGS)

# Fault-injection regression suite under the race detector: the injector
# itself, the platform chaos run (churn + dropped/noised reports + predictor
# failures + delayed decisions), panic isolation, and the server's
# degraded-mode fallbacks.
chaos:
	$(GO) test -race ./internal/fault/ -v
	$(GOTEST_RUN) ./internal/platform/ 'Chaos|PanicModel' -race -v
	$(GOTEST_RUN) ./internal/server/ 'Panic|Degrade|BatchDeadline|OfferOutstanding' -race -v
	$(GOTEST_RUN) ./internal/par/ 'Panic|Retry' -race -v

# Bring up the region-sharded serving tier end to end: two durable tampserver
# shards, a tamprouter fronting them, and a tampgen -drive load run through
# the router, reporting latency percentiles and the error budget.
cluster:
	scripts/cluster.sh

# The resilience gate, blocking in CI. Two layers:
#   1. In-process deterministic chaos: kill a durable shard under router
#      traffic (listener drop and mid-WAL-append crash injection), assert the
#      breaker opens, traffic degrades (queue/shed/failover), and the
#      WAL-recovered shard's state digest matches a never-killed oracle with
#      zero acked ops lost.
#   2. Multi-process smoke: real processes, kill -9, WAL rejoin on the same
#      address, readiness-gated readmission, availability asserted from the
#      drive report.
cluster-smoke:
	$(GOTEST_RUN) ./internal/tier/ 'TestClusterChaosFailoverDigest|TestShardCrashMidAppendRejoins|TestRouterClosedShardTripsBreaker|TestRouterQueueShedAndFlush|TestRouterBorderFailover' -race -count=1 -v
	CLUSTER_SMOKE=1 scripts/cluster.sh

# End-to-end replay demo: record a small simulation as a platform event log,
# then re-run the identical batches offline through two assigners and report
# how much of the live plan each would have re-proposed.
REPLAY_DIR ?= /tmp/tamp-replay
replay:
	rm -rf $(REPLAY_DIR)
	$(GO) run ./cmd/tampsim -workers 12 -tasks 200 -iters 3 -record $(REPLAY_DIR)
	$(GO) run ./cmd/tampbench -replay $(REPLAY_DIR) -assigner PPI
	$(GO) run ./cmd/tampbench -replay $(REPLAY_DIR) -assigner KM

# Native-fuzzing smoke: every fuzz target runs briefly against fresh random
# inputs (the checked-in corpora always run under plain `make test`). Each
# target needs its own invocation — go test allows one -fuzz per run.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/ingest -run '^$$' -fuzz FuzzLoadWorkersCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ingest -run '^$$' -fuzz FuzzLoadTasksCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzWasserstein1D -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzRecover -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzDecodeEvent -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzDecodeSnapshot -fuzztime $(FUZZTIME)
	$(GO) test ./internal/predict -run '^$$' -fuzz FuzzLoadModels -fuzztime $(FUZZTIME)

# Regenerate the benchmark matrix: every scenario generator (paper, windows,
# budget) × every assigner (UB, PPI, KM, GGPSO, Greedy, LB) at the smoke and
# quick scales, written to BENCH_matrix.json + MATRIX.md. Cells are
# deterministic for a given scale, so the committed files only change when
# the simulator, a generator, or an assigner changes behaviour — regenerate
# and commit both files together with the change that moved them.
matrix:
	$(GO) run ./cmd/tampbench -matrix

# Matrix regression gate, blocking in CI: re-run the smoke-scale cells and
# diff against the committed BENCH_matrix.json with per-metric tolerances
# (counts 2%, rates ±0.02, cost 5%). The fresh cells land in
# matrix-current.json so CI can upload them on failure.
matrix-check:
	$(GO) run ./cmd/tampbench -check-matrix BENCH_matrix.json -matrix-scale smoke -matrix-fresh matrix-current.json

# Byte-identity gate, blocking in CI after matrix-check: regenerate every
# cell and require the committed files unchanged. matrix-check's tolerances
# cannot see a one-pair plan change; a PR that claims "plans did not move"
# passes this, and one that means to move them commits the regenerated files.
matrix-identical: matrix
	git diff --exit-code -- BENCH_matrix.json MATRIX.md

# Static analysis beyond go vet. The container has no network, so the binary
# must already be on PATH (CI installs the pinned version; locally:
#   go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
# on a networked machine).
STATICCHECK_VERSION ?= 2025.1
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck not found; install with:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
		exit 1; }
	staticcheck ./...

fmt:
	gofmt -l -w .

# Like fmt but read-only: lists unformatted files and exits non-zero if any
# exist, so CI can gate on formatting without rewriting the tree.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The local mirror of the blocking CI jobs: everything here must pass before
# a push (the race, perfcheck, and chaos jobs run in CI too, split out for
# wall-clock; run them directly when touching concurrency or the NN kernels).
ci: build vet fmt-check test
