# Developer targets for the nopower reproduction.

GO ?= go

# The observability package carries the tracing/metrics contracts every
# controller depends on; its statement coverage is gated.
COVER_PKG    = ./internal/obs
COVER_MIN    = 80.0
COVER_OUT    = coverage.out

# Perf flight recorder (DESIGN.md §13): bench-json records a comparable
# BENCH_<stamp>.json artifact; verify smoke-compares a default-benchtime
# run of the scale benchmarks against the newest committed baseline. The
# threshold is deliberately loose (200%) because the host is noisy and a
# short run still carries warm-up — the gate catches order-of-magnitude
# rot, not percent drift; `make bench-json` plus
# `npprof compare -max-regress 0.05` is the precise workflow.
BENCH_DIR         ?= bench
BENCH_MAX_REGRESS ?= 2.0
BENCH_BASELINE    ?= $(lastword $(sort $(wildcard $(BENCH_DIR)/BENCH_*.json)))

.PHONY: all build test race bench bench-json bench-serve check fmt vet cover soak verify lint testdata-tracked serve-smoke facility-smoke profiles-smoke

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the baseline everything-compiles-and-passes gate: clean
# formatting, vet, a full build, the test suite, and a short smoke of the
# scale benchmarks piped through the flight recorder and compared
# against the committed baseline (so neither the sharded scale path nor
# the bench-json pipeline can rot between full bench runs) — the checks a
# reviewer assumes are green before reading a line.
verify: lint testdata-tracked
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	@tmp=$$(mktemp); \
	NPBENCH_PROFILE=1 $(GO) test -run '^$$' -bench 'BenchmarkScale10k|BenchmarkScale100k' . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/npprof record -note "verify smoke" -o $$tmp || exit 1; \
	if [ -n "$(BENCH_BASELINE)" ]; then \
		$(GO) run ./cmd/npprof compare -max-regress $(BENCH_MAX_REGRESS) $(BENCH_BASELINE) $$tmp || { rm -f $$tmp; exit 1; }; \
	else \
		echo "no baseline in $(BENCH_DIR)/ — skipping compare (run make bench-json)"; \
	fi; \
	rm -f $$tmp
	$(MAKE) serve-smoke
	$(MAKE) facility-smoke
	$(MAKE) profiles-smoke

# serve-smoke boots the real npserved binary on a free port, submits a
# small job over HTTP, long-polls the result, and asserts it is bitwise
# identical to an in-process experiments.Run — the cross-process face of
# the determinism contract — then SIGTERMs the daemon and expects a clean
# exit. The harness lives in cmd/npserved/main_test.go.
serve-smoke:
	$(GO) test -count=1 -run 'TestServeSmoke' ./cmd/npserved

# facility-smoke runs E21 at reduced scale with the FM in the stack and
# asserts the facility determinism contract: the sharded run and the
# kill-and-resume run reproduce the serial run bitwise, facility columns
# (PUE, total draw, cooling, outside air) included.
facility-smoke:
	$(GO) test -count=1 -run 'TestFacilityIdentity' ./internal/experiments

# profiles-smoke validates the host-profile registry (every registered
# calibration passes Model.Validate and spans the idle/P-state spectrum)
# and runs E22 at reduced scale: on every heterogeneous fleet mix the
# sharded run and the kill-and-resume run must reproduce the serial run
# bitwise, per-profile decomposition included.
profiles-smoke:
	$(GO) test -count=1 -run 'TestRegistry|TestLookup|TestFrozenGuard' ./internal/model
	$(GO) test -count=1 -run 'TestHeteroIdentity' ./internal/experiments

# bench-serve is the E20 daemon load benchmark: 500 jobs over 8 distinct
# specs per iteration against an in-memory server, reporting p50/p99
# submit-to-done latency as custom metrics (see EXPERIMENTS.md E20).
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServeLoad' -benchtime 5x -count=1 ./internal/serve

# testdata-tracked fails when any file under a testdata/ directory is
# untracked or ignored: a golden fixture that never reaches git turns the
# suite red on every clean clone. Outside a git checkout there is nothing
# to compare against, so the step is skipped.
testdata-tracked:
	@if [ ! -d .git ]; then echo "no .git — skipping the testdata tracking check"; exit 0; fi; \
	bad=$$(git ls-files --others -- '*/testdata/*' ':!.bench_build'); \
	if [ -n "$$bad" ]; then \
		echo "untracked or ignored files under testdata/ (git add them; check .gitignore):"; \
		echo "$$bad"; exit 1; \
	fi

# lint enforces the columnar-store API boundary: the per-server struct
# (cluster.Server) and the struct slice (cl.Servers) were removed in the
# struct-of-arrays redesign, and nothing outside internal/cluster may grow
# them back or poke columns directly. The wire-format cluster.ServerState
# (checkpoints) is explicitly allowed.
lint:
	@bad=$$(grep -rn --include='*.go' --exclude-dir=.git -E \
		'cluster\.Server([^A-Za-z0-9_]|$$)|\bcl\.Servers\b' . \
		| grep -v '^\./internal/cluster/' | grep -v 'cluster\.ServerState' || true); \
	if [ -n "$$bad" ]; then \
		echo "removed cluster.Server API referenced outside internal/cluster:"; \
		echo "$$bad"; exit 1; \
	fi

# race is the gate for the parallel experiment runner and the sharded tick
# engine: every experiment test forces the concurrent worker-pool path, and
# the determinism test runs the sharded engine's worker goroutines under the
# detector, so this catches data races in shared caches, models, the metrics
# pipeline, and the per-tick shard fan-out. verify and the obs coverage
# floor ride along so one target stays the pre-merge gate.
race: verify cover
	$(GO) test -race -count=1 -run 'TestShardDeterminism' ./internal/sim
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run '^$$'

# bench-json records the perf flight recorder: the scale and sweep
# benchmarks run with the span profiler attached (phase breakdown +
# imbalance ride along as custom metrics) and the output lands as a
# schema-versioned artifact under $(BENCH_DIR)/. Compare two stamps with
# `go run ./cmd/npprof compare old.json new.json`.
bench-json:
	@mkdir -p $(BENCH_DIR)
	@stamp=$$(date -u +%Y%m%dT%H%M%SZ); \
	NPBENCH_PROFILE=1 $(GO) test -run '^$$' -benchmem \
		-bench 'BenchmarkScale10k|BenchmarkScale100k|BenchmarkParallelSweep' . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/npprof record -note "make bench-json" -o $(BENCH_DIR)/BENCH_$$stamp.json

# soak runs the fault-injection acceptance suite under the race detector:
# every chaos scenario against both stacks with FaultPolicy = degrade, the
# panic sandbox, fail-safe fallback, and chaos event library all exercised.
soak: verify
	$(GO) test -race -count=1 ./internal/chaos ./internal/sim
	$(GO) test -race -count=1 -v -run 'TestChaos' ./internal/experiments

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# cover enforces a minimum statement coverage on internal/obs — the one
# package whose regressions (a silent tracer, a stuck counter) tests
# elsewhere would not notice.
cover:
	$(GO) test -coverprofile=$(COVER_OUT) $(COVER_PKG)
	@total=$$($(GO) tool cover -func=$(COVER_OUT) | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/obs coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || \
	{ echo "coverage $$total% below $(COVER_MIN)% floor"; exit 1; }

check: build race
