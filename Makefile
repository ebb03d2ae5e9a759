# Build/verify entry points. `make check` is the full CI gate: a tree
# that passes it compiles, is gofmt-clean, passes go vet and the
# repo-specific distwsvet analyzers (see cmd/distwsvet), passes the
# tests — among them the end-to-end command lines of cmd/uts (TestCLI)
# and the scenario matrix against its committed baseline
# (TestMatrixPinsCommittedBaseline) — and survives the race-detector
# stress tests on the concurrent packages. After a deliberate behaviour
# change, the harness goldens (the quick-scale reports and the matrix's
# ledger) are rewritten with
#   go test ./internal/harness -run 'TestQuickExperiments|TestMatrixPinsCommittedBaseline' -update

GO ?= go
ARTIFACTS ?= artifacts
# The top level of $(ARTIFACTS) holds only directories (smoke/ for the
# profile, runs/, bench/) plus the distwsvet report.
# artifacts/runs/baseline/ is the one committed corner: the golden
# ledger the matrix test compares against.
SMOKE = $(ARTIFACTS)/smoke

.PHONY: build test vet distwsvet bench-check race fuzz-smoke lint bench-json bench-smoke profile results-check check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The other lines type-check, for a GOARCH without them, the packages
# around the two assembly stubs — the SHA-NI child-generation kernel
# (internal/uts/sha1block_other.go) and the alias-cell prefetch
# (internal/sample/prefetch_other.go) — so the generic files cannot rot
# on amd64-only hosts; on amd64 the first line's asmdecl check covers
# sha1block_amd64.s and prefetch_amd64.s. Cross-vetting needs no cgo, no
# dependencies and no network.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/uts ./internal/core
	GOARCH=arm64 $(GO) vet ./internal/sample ./internal/victim ./internal/workstack

# distwsvet enforces the determinism, ownership and allocation
# invariants: detrand, walltime, lockcheck, handlesafe, poolcheck,
# hotalloc, detorder. See README "Enforced invariants".
# The run is budgeted so an analyzer pathology fails CI instead of
# stalling it, and the JSON report (findings, suppressions with their
# reasons, stale allowlist entries) lands in $(ARTIFACTS) for upload.
DISTWSVET_BUDGET ?= 2m
distwsvet:
	@mkdir -p $(ARTIFACTS)
	$(GO) run ./cmd/distwsvet -budget $(DISTWSVET_BUDGET) -format json ./... > $(ARTIFACTS)/distwsvet.json || { cat $(ARTIFACTS)/distwsvet.json; exit 1; }
	@echo "distwsvet: clean; report in $(ARTIFACTS)/distwsvet.json"

# bench/ (the repository benchmark, BENCHMARK.json) is a nested module:
# ./... above does not reach it, so a refactor of the packages it
# imports could break it unseen. Its tests replay every workload at
# seed 1 against bench/golden_seed1.json.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Every place that runs real goroutines gets a race-detector pass:
# harness.Execute, whose concurrent core.Run calls
# share core's run-store list, with the kernels and recorders it keeps
# (TestExecuteSharesRecorderStores: traced runs at both levels),
# victim's alias-table cache (the cache's own tests run under -race
# too) and, in ext-dag, one task graph; and the sharded kernel and engine tests
# (window barrier, staging queues, routers), where simulated concurrency
# meets host concurrency — TestShardedGoldenFig9's traced runs record
# from parallel windows into one recorder — with core's run-store list,
# which TestRunStoreReuse hits from three concurrent core.Run sequences.
# -short keeps the stress budgets CI-sized.
race:
	$(GO) test -race -short ./internal/sim/par ./internal/victim
	$(GO) test -race -run 'Execute' -count=1 ./internal/harness
	$(GO) test -race -run 'Sharded|RunStoreReuse' -count=1 ./internal/core

# fuzz-smoke gives every native fuzz target in the tree (found with
# `go test -list`, so a new one is picked up unasked) a short real
# fuzzing run; plain `go test` only replays each target's seed corpus.
# -fuzzminimizetime 1x: the engine's default per-input minimisation
# stalls on FuzzKernelOrder. A failing input lands in the package's
# testdata/fuzz/ — commit it as the regression case.
FUZZTIME ?= 5s
fuzz-smoke:
	@targets=$$($(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ { names[n++] = $$1 } \
		/^ok/ { for (i = 0; i < n; i++) print $$2 ":" names[i]; n = 0 }') || exit 1; \
	[ -n "$$targets" ] || { echo "fuzz-smoke: no fuzz targets found"; exit 1; }; \
	for t in $$targets; do \
		echo "fuzz-smoke: $${t##*:} ($${t%%:*}, $(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$${t##*:}\$$" -fuzzminimizetime 1x -fuzztime $(FUZZTIME) $${t%%:*} || exit 1; \
	done

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Hot-path benchmarks of the simulation substrate (event kernel,
# messaging, latency lookup, UTS hashing, the work stack, victim draws,
# the engine's failed-steal round trip) and of the observability
# pipeline's four bulk stages (event recording, JSONL export, steal
# pairing, the causal graph), exported as a JSON artifact for archiving and cross-commit
# comparison.
# BENCHTIME=1x gives the CI smoke variant below; default is a real
# measurement.
BENCHTIME ?= 1s
BENCH_PKGS = ./internal/sim ./internal/sim/par ./internal/comm ./internal/core ./internal/topology ./internal/uts ./internal/workstack ./internal/victim ./internal/fault ./internal/obs/parprof ./internal/serve ./internal/trace ./internal/obs ./internal/obs/causal .
BENCH_NAMES = BenchmarkKernelHotPath|BenchmarkShardedKernel|BenchmarkCommSend|BenchmarkFailedSteal|BenchmarkLatencyLookup|BenchmarkNewJob|BenchmarkUTSChildGen|BenchmarkWorkStack|BenchmarkVictimDraw|BenchmarkFaultInjection|BenchmarkWindowLedger|BenchmarkServeArrivals|BenchmarkTraceExport|BenchmarkPairSteals|BenchmarkStealLatency|BenchmarkCausalBuild|BenchmarkRecorderLog|BenchmarkRecorderActivity
BENCH_REQUIRE = KernelHotPath/pending=64,KernelHotPath/pending=1024,KernelHotPath/pending=8192,KernelHotPath/pending=1024+far,KernelHotPath/pending=8192+backoff,ShardedKernel/shards=1,ShardedKernel/shards=2,ShardedKernel/shards=4,ShardedKernel/shards=8,CommSend,FailedSteal,LatencyLookup,NewJob/ranks=8192,UTSChildGen/sha-ni,UTSChildGen/fallback,UTSChildGen/binary,WorkStack/push-pop,WorkStack/steal-half-acquire,VictimDraw/alias-1024,VictimDraw/alias-1024-evicted,VictimDraw/reject-8192,FaultInjection/nil-plan,FaultInjection/crashes,FaultInjection/lossy,WindowLedger,ServeArrivals,TraceExport,PairSteals,StealLatency,CausalBuild,RecorderLog,RecorderActivity
BENCH_RUN = $(GO) test -run '^$$' -bench '$(BENCH_NAMES)' -benchmem \
	-benchtime $(BENCHTIME) $(BENCH_PKGS)

# bench-json regenerates the committed baseline at the repo root; run it
# (at the default real BENCHTIME) and commit BENCH_sim.json when a
# benchmark is added or its allocation profile deliberately changes.
bench-json:
	$(BENCH_RUN) | $(GO) run ./cmd/benchjson -require $(BENCH_REQUIRE) -out BENCH_sim.json
	@echo "bench-json: wrote BENCH_sim.json (commit it to rebaseline)"

# bench-smoke is the CI gate: a short run of every hot-path benchmark,
# the alloc-gate tests, and a tolerance-band comparison of the fresh
# results against the committed BENCH_sim.json (allocs near-exact,
# bytes banded, wall time ignored — the host measures these, so they
# get bands where simulator outputs get equality). 100 iterations, not 1: allocs/op only matches the
# steady-state baseline once one-time warmup allocations amortize.
bench-smoke: BENCHTIME = 100x
bench-smoke:
	$(GO) test -run 'AllocFree|AllocBudget' -count=1 $(BENCH_PKGS)
	@mkdir -p $(ARTIFACTS)/bench
	$(BENCH_RUN) | $(GO) run ./cmd/benchjson -require $(BENCH_REQUIRE) \
		-out $(ARTIFACTS)/bench/BENCH_sim.json -baseline BENCH_sim.json

# profile runs one benchmark of the root package under the CPU profiler
# and prints the flat top of it. The default is the repository
# benchmark's steal-8k configuration, so a change in that workload can
# be profiled without editing bench/. The test binary and cpu.prof stay
# in $(SMOKE) for `go tool pprof -list <regexp>`.
BENCH ?= SimulatorThroughput/ranks=8192
PROFILE_TIME ?= 10x
profile:
	@mkdir -p $(SMOKE)
	$(GO) test -c -o $(SMOKE)/distws.test .
	$(SMOKE)/distws.test -test.run '^$$' -test.bench '$(BENCH)' -test.benchtime $(PROFILE_TIME) \
		-test.cpuprofile $(SMOKE)/cpu.prof
	$(GO) tool pprof -top -nodecount 25 $(SMOKE)/distws.test $(SMOKE)/cpu.prof
	@echo "profile: $(SMOKE)/distws.test and $(SMOKE)/cpu.prof kept for go tool pprof -list"

# results-check reruns every experiment at default scale and seed 12345
# and diffs the reports against the committed results_default.txt
# (what EXPERIMENTS.md records), ignoring the per-experiment wall-time
# lines and the total: line. A refactor of internal/harness that claims
# the same reports runs it. It takes about 3 minutes on 2 vCPUs, so it
# is not part of check.
results-check:
	@mkdir -p $(SMOKE) && rm -f $(SMOKE)/results_default.txt
	-$(GO) run ./cmd/experiments -run all -scale default -seed 12345 > $(SMOKE)/results_default.txt
	@grep -v ' at scale \|^total: ' results_default.txt > $(SMOKE)/results_want.txt
	@grep -v ' at scale \|^total: ' $(SMOKE)/results_default.txt > $(SMOKE)/results_got.txt
	diff $(SMOKE)/results_want.txt $(SMOKE)/results_got.txt
	@echo "results-check: reports equal results_default.txt"

check: build lint vet distwsvet test bench-check race fuzz-smoke
	@echo "check: all gates passed"

clean:
	$(GO) clean ./...
