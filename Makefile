# Build/verify entry points. `make check` is the full CI gate: a tree
# that passes it compiles, is gofmt-clean, passes go vet and the
# repo-specific distwsvet analyzers (see cmd/distwsvet), and survives
# the race-detector stress tests on the concurrent packages.

GO ?= go
ARTIFACTS ?= artifacts
# Smoke-run output lands in its own subdirectory; the top level of
# $(ARTIFACTS) holds only directories (smoke/, runs/, bench/) plus the
# distwsvet report. artifacts/runs/baseline/ is the one committed
# corner: the golden ledger the matrix gate compares against.
SMOKE = $(ARTIFACTS)/smoke

.PHONY: build test vet distwsvet bench-check race fuzz-smoke lint obs-smoke causal-smoke chaos-smoke serve-smoke par-smoke parprof-smoke bench-json bench-smoke profile matrix-smoke matrix-baseline check clean

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
# invariants: detrand, walltime, lockcheck, atomicmix, handlesafe,
# poolcheck, hotalloc, detorder. See README "Enforced invariants".
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

# The concurrent packages get a dedicated race-detector pass; -short
# keeps the stress budgets CI-sized. The sharded kernel and the sharded
# engine tests (window barrier, staging queues, crash-during-window)
# run under the detector in full: the parallel windows are the one
# place simulated concurrency meets host concurrency.
race:
	$(GO) test -race -short ./internal/deque ./internal/rt ./internal/sim/par
	$(GO) test -race -run 'Sharded' -count=1 ./internal/core

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

# obs-smoke exercises the observability pipeline end to end: a small
# traced simulation, the tracetool text and JSON analyses, a Chrome
# trace conversion, and tracetool -check over every artifact. CI
# uploads $(ARTIFACTS)/ so the Perfetto trace of each run is a click
# away (load smoke.chrome.json at ui.perfetto.dev).
obs-smoke:
	@mkdir -p $(SMOKE)
	$(GO) run ./cmd/uts -tree H-TINY -ranks 32 -seed 3 \
		-trace $(SMOKE)/smoke.jsonl -chrome $(SMOKE)/smoke.chrome.json \
		-manifest $(SMOKE)/smoke.manifest.json
	$(GO) run ./cmd/tracetool -in $(SMOKE)/smoke.jsonl
	$(GO) run ./cmd/tracetool -in $(SMOKE)/smoke.jsonl -format json > $(SMOKE)/smoke.report.json
	$(GO) run ./cmd/tracetool -check $(SMOKE)/smoke.jsonl $(SMOKE)/smoke.chrome.json \
		$(SMOKE)/smoke.report.json $(SMOKE)/smoke.manifest.json

# causal-smoke runs the causal analyses (idle-time blame, critical
# path, work lineage) over the obs-smoke trace and archives the blame
# report next to the Perfetto trace. The non-empty check catches a
# silently broken pipeline.
causal-smoke: obs-smoke
	$(GO) run ./cmd/tracetool -in $(SMOKE)/smoke.jsonl \
		-blame -critical -lineage > $(SMOKE)/smoke.blame.txt
	@grep -q "idle-time blame" $(SMOKE)/smoke.blame.txt || \
		{ echo "causal-smoke: blame report missing from smoke.blame.txt"; exit 1; }
	@grep -q "critical path" $(SMOKE)/smoke.blame.txt || \
		{ echo "causal-smoke: critical path missing from smoke.blame.txt"; exit 1; }
	@echo "causal-smoke: wrote $(SMOKE)/smoke.blame.txt"

# chaos-smoke drives the fault-injection subsystem end to end: a tiny
# crash+straggler run through cmd/uts must terminate completely,
# report nonzero recovery activity, and replay byte-identically (the
# fault schedule is part of the seeded state). The chaos degradation
# table (harness experiment "chaos") lands in $(ARTIFACTS)/ alongside
# the observability artifacts; its shape checks gate the exit status.
CHAOS_RUN = $(GO) run ./cmd/uts -tree T3 -ranks 16 -seed 7 \
	-crash 3@40us,11@90us -straggler 5@3x2

chaos-smoke:
	@mkdir -p $(SMOKE)
	$(CHAOS_RUN) > $(SMOKE)/chaos.txt
	@$(CHAOS_RUN) | cmp -s - $(SMOKE)/chaos.txt || \
		{ echo "chaos-smoke: faulted run is not replay-identical"; exit 1; }
	@grep -q "crashed ranks:   2" $(SMOKE)/chaos.txt || \
		{ echo "chaos-smoke: expected 2 crashed ranks"; cat $(SMOKE)/chaos.txt; exit 1; }
	@grep -q "recoveries:" $(SMOKE)/chaos.txt || \
		{ echo "chaos-smoke: no recovery episodes recorded"; cat $(SMOKE)/chaos.txt; exit 1; }
	@if grep -q "WARNING: premature" $(SMOKE)/chaos.txt; then \
		echo "chaos-smoke: premature termination under faults"; exit 1; fi
	$(GO) run ./cmd/experiments -run chaos -scale quick -o $(SMOKE)/chaos.table.txt
	@echo "chaos-smoke: wrote $(SMOKE)/chaos.txt and chaos.table.txt"

# Hot-path benchmarks of the simulation substrate (event kernel,
# messaging, latency lookup, UTS hashing, the work stack, victim draws,
# the engine's failed-steal round trip) and of the observability
# pipeline's three bulk stages (JSONL export, steal pairing, the causal
# graph), exported as a JSON artifact for archiving and cross-commit
# comparison.
# BENCHTIME=1x gives the CI smoke variant below; default is a real
# measurement.
BENCHTIME ?= 1s
BENCH_PKGS = ./internal/sim ./internal/sim/par ./internal/comm ./internal/core ./internal/topology ./internal/uts ./internal/workstack ./internal/victim ./internal/fault ./internal/obs/parprof ./internal/serve ./internal/trace ./internal/obs ./internal/obs/causal .
BENCH_NAMES = BenchmarkKernelHotPath|BenchmarkShardedKernel|BenchmarkCommSend|BenchmarkFailedSteal|BenchmarkLatencyLookup|BenchmarkUTSChildGen|BenchmarkWorkStack|BenchmarkVictimDraw|BenchmarkFaultInjection|BenchmarkWindowLedger|BenchmarkServeArrivals|BenchmarkTraceExport|BenchmarkPairSteals|BenchmarkCausalBuild
BENCH_REQUIRE = KernelHotPath/pending=64,KernelHotPath/pending=1024,KernelHotPath/pending=8192,KernelHotPath/pending=1024+far,KernelHotPath/pending=8192+backoff,ShardedKernel/shards=1,ShardedKernel/shards=2,ShardedKernel/shards=4,ShardedKernel/shards=8,CommSend,FailedSteal,LatencyLookup,UTSChildGen/sha-ni,UTSChildGen/fallback,UTSChildGen/binary,WorkStack/push-pop,WorkStack/steal-half-acquire,VictimDraw/alias-1024,VictimDraw/alias-1024-evicted,VictimDraw/reject-8192,FaultInjection/nil-plan,FaultInjection/crashes,FaultInjection/lossy,WindowLedger,ServeArrivals,TraceExport,PairSteals,CausalBuild
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
# results against the committed BENCH_sim.json — the same comparator
# the matrix gate uses (allocs near-exact, bytes banded, wall time
# ignored). 100 iterations, not 1: allocs/op only matches the
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

# serve-smoke drives the open-system serving layer end to end: a
# fixed-seed two-tenant serving run through cmd/uts must drain every
# admitted job, book a consistent admission ledger (arrived = admitted
# + rejected), and replay byte-identically — the arrival schedule is
# compiled from (spec, seed) before the simulation starts, so any
# divergence is a determinism leak. The goodput/fairness saturation
# table (harness experiment "serving") lands in $(SMOKE)/; its shape
# checks gate the exit status.
SERVE_RUN = $(GO) run ./cmd/uts -tree T3 -ranks 16 -seed 7 -selector Tofu \
	-serve -tenants 2 -arrivals poisson:2ms,gamma:4ms:2 -horizon 40ms

serve-smoke:
	@mkdir -p $(SMOKE)
	$(SERVE_RUN) > $(SMOKE)/serve.txt
	@$(SERVE_RUN) | cmp -s - $(SMOKE)/serve.txt || \
		{ echo "serve-smoke: serving run is not replay-identical"; exit 1; }
	@grep -q "open-system serving:" $(SMOKE)/serve.txt || \
		{ echo "serve-smoke: serving report section missing"; cat $(SMOKE)/serve.txt; exit 1; }
	@awk '/jobs:/ { seen = 1; \
		if ($$2 + 0 != $$5 + $$8) { print "serve-smoke: admission ledger broken: " $$0; bad = 1 }; \
		if ($$10 + 0 != $$5 + 0) { print "serve-smoke: undrained jobs: " $$0; bad = 1 } } \
		END { if (!seen) { print "serve-smoke: no jobs line in report"; bad = 1 }; exit bad }' \
		$(SMOKE)/serve.txt
	$(GO) run ./cmd/experiments -run serving -scale quick -o $(SMOKE)/serve.table.txt
	@echo "serve-smoke: wrote $(SMOKE)/serve.txt and serve.table.txt"

# matrix-smoke is the cross-run regression gate: the scenario matrix
# (tree × selector × ranks × fault plan) runs at quick scale, writes one
# run manifest per cell to $(ARTIFACTS)/runs/latest, and compares every
# cell against the committed baseline ledger in artifacts/runs/baseline
# with per-metric tolerance bands. Regressed cells fail the build and
# get a causal attribution report next to their manifests (CI uploads
# them). `make matrix-smoke PERTURB=3` proves the gate trips.
MATRIX_SCALE ?= quick
PERTURB ?= 0
matrix-smoke:
	$(GO) run ./cmd/experiments -matrix -scale $(MATRIX_SCALE) -perturb $(PERTURB) \
		-matrix-out $(ARTIFACTS)/runs/latest -baseline artifacts/runs/baseline

# matrix-baseline regenerates the committed golden ledger. Rebaseline
# workflow: run this after a deliberate behaviour change, review the
# manifest diffs (`git diff artifacts/runs/baseline`), and commit.
matrix-baseline:
	$(GO) run ./cmd/experiments -matrix -scale $(MATRIX_SCALE) -matrix-out artifacts/runs/baseline
	@echo "matrix-baseline: regenerated artifacts/runs/baseline — review the diff and commit"

# par-smoke is the sharded-kernel determinism gate: the same Fig-9-style
# run (Tofu selection, 1/N placement) executed at 1, 2, 4 and 8 shards
# must print byte-identical results — every output of the run is virtual,
# so any byte of divergence means the window protocol leaked host
# scheduling into the simulation. Wall-clock per shard count lands in the
# scaling-table artifact; on multi-core runners it shows the speedup,
# on single-core CI it documents the coordination overhead.
PAR_TREE ?= H-SMALL
PAR_RANKS ?= 2048
PAR_SHARDS ?= 1 2 4 8
PAR_RUN = $(GO) run ./cmd/uts -tree $(PAR_TREE) -ranks $(PAR_RANKS) -chunk 4 -selector Tofu -seed 5
par-smoke:
	@mkdir -p $(SMOKE)
	$(PAR_RUN) -shards 1 > $(SMOKE)/par.txt
	@echo "# shards wall_seconds ($(PAR_TREE), $(PAR_RANKS) ranks, Tofu)" > $(SMOKE)/par.scaling.txt
	@for s in $(PAR_SHARDS); do \
		start=$$(date +%s.%N); \
		$(PAR_RUN) -shards $$s > $(SMOKE)/par.$$s.txt || exit 1; \
		end=$$(date +%s.%N); \
		echo "$$s $$(echo "$$end $$start" | awk '{printf "%.2f", $$1-$$2}')" >> $(SMOKE)/par.scaling.txt; \
		cmp -s $(SMOKE)/par.$$s.txt $(SMOKE)/par.txt || \
			{ echo "par-smoke: shards=$$s diverged from sequential"; exit 1; }; \
		rm -f $(SMOKE)/par.$$s.txt; \
	done
	@cat $(SMOKE)/par.scaling.txt
	@echo "par-smoke: shards {$(PAR_SHARDS)} byte-identical; scaling table in $(SMOKE)/par.scaling.txt"

# parprof-smoke is the window-profiling observer-freedom gate: the same
# sharded run with and without -parprof must emit byte-identical event
# traces (profiling reads barrier state, it never perturbs it), the
# profiled manifest's `par` section must pass tracetool -check and print
# under tracetool -par, and the shards {1,2,4,8} scaling report must land
# as a JSON artifact for CI upload.
PARPROF_RUN = $(GO) run ./cmd/uts -tree T3 -ranks 16 -chunk 4 -selector Tofu -seed 5 -shards 4
parprof-smoke:
	@mkdir -p $(SMOKE)
	$(PARPROF_RUN) -trace $(SMOKE)/parprof.off.jsonl > /dev/null
	$(PARPROF_RUN) -parprof -trace $(SMOKE)/parprof.on.jsonl \
		-manifest $(SMOKE)/parprof.manifest.json \
		-parprof-json $(SMOKE)/parprof.scaling.json > $(SMOKE)/parprof.txt
	@cmp -s $(SMOKE)/parprof.on.jsonl $(SMOKE)/parprof.off.jsonl || \
		{ echo "parprof-smoke: profiling perturbed the event trace"; exit 1; }
	@rm -f $(SMOKE)/parprof.off.jsonl $(SMOKE)/parprof.on.jsonl
	@grep -q "parallel-kernel profile" $(SMOKE)/parprof.txt || \
		{ echo "parprof-smoke: window profile missing from output"; cat $(SMOKE)/parprof.txt; exit 1; }
	@grep -q "shard scaling report" $(SMOKE)/parprof.txt || \
		{ echo "parprof-smoke: scaling report missing from output"; cat $(SMOKE)/parprof.txt; exit 1; }
	$(GO) run ./cmd/tracetool -in $(SMOKE)/parprof.manifest.json -par
	$(GO) run ./cmd/tracetool -check $(SMOKE)/parprof.manifest.json
	@echo "parprof-smoke: observer-free; profile in $(SMOKE)/parprof.txt, scaling in $(SMOKE)/parprof.scaling.json"

check: build lint vet distwsvet test bench-check race fuzz-smoke par-smoke parprof-smoke causal-smoke chaos-smoke serve-smoke matrix-smoke
	@echo "check: all gates passed"

clean:
	$(GO) clean ./...
