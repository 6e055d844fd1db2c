# Convenience targets; CI runs the same commands.

GO ?= go

.PHONY: all test vet bench bench-check perf-check scaling networks placements serve loadtest docker profile alloc-check trace-smoke perfbench-check

all: test

test:
	$(GO) build ./... && $(GO) test ./...

vet:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

# bench regenerates the perf-trajectory baseline: every application's
# small dataset under the default configuration (4 KB units, homeless,
# ideal network). Commit the refreshed BENCH_baseline.json whenever a
# PR intentionally moves these numbers.
bench:
	$(GO) run ./cmd/dsmbench -baseline -json > BENCH_baseline.json

# bench-check is the regression gate: re-run the baseline suite and fail
# on >2% simulated-time drift against the committed file (the ideal
# network is deterministic, so drift is a real engine change). CI runs
# this on every push.
bench-check:
	$(GO) run ./cmd/dsmbench -check-baseline BENCH_baseline.json

# perf-check is the wall-clock trajectory gate: BENCH_after.json
# carries a perf section (host-normalized -networks sweep wall time),
# so -check-baseline additionally re-runs the sweep and fails on >25%
# normalized slowdown — a lost optimization, not scheduler jitter.
# It also gates the committed scaling sweep: BENCH_scaling.json must
# claim a >=5x sparse/tree win at 256 procs and a live re-run of the
# best cell must reproduce >=2x. Finally -check-speedup re-runs the
# derived -networks sweep and fails unless it beats the committed
# all-engine-runs BENCH_before.json wall time by >=3x — the gate on
# the replay-derivation optimization itself.
perf-check:
	$(GO) run ./cmd/dsmbench -check-baseline BENCH_after.json
	$(GO) run ./cmd/dsmbench -check-scaling BENCH_scaling.json
	$(GO) run ./cmd/dsmbench -check-speedup BENCH_before.json

# scaling regenerates the committed 8->1024-proc scaling curves
# (storm/large, {homeless,home} x {ideal,bus} x {dense/central,
# sparse/tree}). The dense 1024-proc cells take minutes each by
# design — that quadratic cost is the datum — so the full sweep is a
# coffee break, not a CI job. Commit the refreshed BENCH_scaling.json
# whenever a PR moves these numbers.
scaling:
	$(GO) run ./cmd/dsmbench -scaling -json > BENCH_scaling.json

# profile runs the -networks sweep under the std runtime/pprof
# collectors and prints the top CPU and allocation sinks. The raw
# profiles land in ./prof/ for interactive `go tool pprof` sessions —
# this is how every before/after claim in DESIGN.md §11 is reproduced.
profile:
	mkdir -p prof
	$(GO) build -o prof/dsmbench ./cmd/dsmbench
	./prof/dsmbench -networks -cpuprofile prof/cpu.prof -memprofile prof/mem.prof > prof/networks.txt
	$(GO) tool pprof -top -nodecount 15 prof/dsmbench prof/cpu.prof
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space prof/dsmbench prof/mem.prof

# alloc-check runs only the allocation-budget tests: steady-state
# allocs/op in the lrc interval path, mem diff path, vc operations,
# the homeless jacobi inner loop, and the MemSink capture path (plain
# and capture-enabled engine runs) must stay under the pinned budgets.
alloc-check:
	$(GO) test ./internal/lrc/ ./internal/mem/ ./internal/vc/ ./internal/simnet/ ./internal/tmk/ ./internal/trace/ -run 'Alloc|Budget' -v

# trace-smoke captures one traced run and checks that a same-model
# replay reproduces its totals bit-identically (dsmtrace exits 1 if
# not), then re-prices the capture across the other interconnects.
trace-smoke:
	$(GO) run ./cmd/dsmrun -app jacobi -dataset small -network bus -trace /tmp/dsm-trace-smoke.jsonl -json > /dev/null
	$(GO) run ./cmd/dsmtrace -replay /tmp/dsm-trace-smoke.jsonl
	$(GO) run ./cmd/dsmtrace -replay -network ideal /tmp/dsm-trace-smoke.jsonl
	$(GO) run ./cmd/dsmtrace /tmp/dsm-trace-smoke.jsonl | head -20

# perfbench-check vets and tests the host-time benchmark. perfbench is
# its own module, so neither `go build ./...` nor `go test ./...`
# compiles it against the harness and service APIs it imports.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

# networks prints the interconnect sensitivity sweep.
networks:
	$(GO) run ./cmd/dsmbench -networks

# placements prints the home-placement comparison (home & adaptive on
# ideal and bus, every registered policy).
placements:
	$(GO) run ./cmd/dsmbench -placements

# serve starts the experiment service on DSMD_ADDR (default :8080).
# Configure with DSMD_ADDR / DSMD_CACHE_ENTRIES / DSMD_MAX_CONCURRENT_RUNS.
serve:
	$(GO) run ./cmd/dsmd

# loadtest fires concurrent mixed hit/miss spec traffic at an in-process
# experiment service backed by the real engine and reports requests/sec,
# engine-run count, and cache hit rate.
loadtest:
	$(GO) test ./internal/expsvc/ -run NoTestsJustBench -bench BenchmarkServerMixed -benchtime 2s

# docker builds the dsmd container image (static binary, FROM scratch).
docker:
	docker build -t dsmd .
