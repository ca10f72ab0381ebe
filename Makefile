GO ?= go

.PHONY: all build test test-race test-service test-cluster test-overload vet lint bench bench-sched bench-check perfbench-golden telemetry-overhead telemetry-smoke cover fuzz fuzz-smoke check experiments examples euad clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is vet, a gofmt check and staticcheck. The gofmt check fails on
# any tracked Go file that is not gofmt-formatted; it reads only tracked
# files, so build caches such as .bench_build are never scanned. Its
# stdin is /dev/null because gofmt given no files reads stdin.
# staticcheck is optional tooling: when the binary is absent (minimal
# containers) that step is skipped and says so, rather than failing or
# pulling a dependency.
lint: vet
	@unformatted=$$(gofmt -l $$(git ls-files '*.go') </dev/null); \
	if [ -n "$$unformatted" ]; then \
		echo "lint: not gofmt-formatted:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; ran go vet and gofmt only"; \
	fi

test:
	$(GO) test ./...

# test-race exercises the parallel experiment runner (and everything else)
# under the race detector; the determinism tests run sweeps at several
# worker counts, so data races in the fan-out surface here.
test-race:
	$(GO) test -race ./...

# test-service exercises the euad service stack under the race detector:
# the server/jobstore/client suites (including the 30s+ saturation soak)
# plus the kill -9 chaos tests for both the daemon and the CLI.
test-service:
	$(GO) test -race -count=1 ./internal/server/ ./internal/jobstore/ ./internal/client/
	$(GO) test -race -count=1 -run 'TestChaos' ./cmd/euad/ ./cmd/euasim/

# test-overload exercises the multi-tenant overload and degraded-storage
# paths under the race detector (see DESIGN.md §14): the tenancy and
# fault-injecting filesystem unit suites, the WDRR fairness saturation
# soak, the degraded/poisoned admission tests, the journal fault
# regressions, the client circuit breaker + retry-budget suite, and the
# 20-cycle storage-fault kill/restart chaos test (zero acked-job loss,
# zero false acks).
test-overload:
	$(GO) test -race -count=1 ./internal/tenancy/ ./internal/storage/
	$(GO) test -race -count=1 -run 'TestTenant|TestDegraded|TestPoisoned' ./internal/server/
	$(GO) test -race -count=1 -run 'TestAppend|TestRepair|TestJournalTenant' ./internal/jobstore/
	$(GO) test -race -count=1 -run 'TestBreaker|TestMaxElapsed|TestWorkerReRegisters' ./internal/client/
	$(GO) test -race -count=1 -run 'TestChaosStorage' -timeout 5m ./cmd/euad/

# test-cluster runs the multi-node coordination suite under the race
# detector: the coordinator's lease/fencing unit tests, the in-process
# cluster merge tests, and the 4-process chaos soak (coordinator + 3
# worker daemons, one SIGKILLed and one SIGSTOPped mid-sweep; merged
# result must be byte-identical to a single-node run). The timeout is
# the wall-clock budget — the soak normally finishes in under a minute.
test-cluster:
	$(GO) test -race -count=1 ./internal/coordinator/
	$(GO) test -race -count=1 -run 'TestCluster|TestCoordinator' -timeout 5m ./internal/server/ ./cmd/euad/

bench:
	$(GO) test -bench=. -benchmem .

# bench-sched measures the scheduler hot path — ns/event, allocs/event and
# events/sec across the task-count x load matrix for EUA* on one core
# (eua), partitioned on 1, 2 and 4 cores (eua-part), and laEDF on one
# core (laedf) — and refreshes the committed BENCH_sched.json baseline.
# Every repetition's ns/event is scaled by a calibration kernel timed
# beside it; the repetitions interleave across cells on one P, and each
# cell keeps the median of 15.
bench-sched:
	$(GO) run ./cmd/euabench -out BENCH_sched.json

# bench-check re-measures the matrix and fails if any cell is >15% slower
# (calibrated ns/event) than the committed baseline, or allocates more
# than 0.01 allocs/event above it (allocation counts do not drift with
# the host).
# Wired into CI as a separate non-blocking job: shared-runner noise
# should inform, not gate merges.
bench-check:
	$(GO) run ./cmd/euabench -check BENCH_sched.json

# perfbench-golden runs every perfbench workload at seed 1 and fails when
# any op's result digest differs from perfbench/golden.json. The warm-up
# checks one op per op seed, so every digest is checked at any run
# length; a schedule change anywhere in the engine, the schedulers or
# the daemon shows up here. Build products stay under .bench_build.
perfbench-golden:
	bash perfbench/run.sh --workload all --seed 1 --seconds 5 --trace 0

# telemetry-overhead benchmarks each cell with the no-op sink and with a
# live registry, and fails when the median ns/event cost of enabling
# telemetry exceeds 5% (see DESIGN.md §10).
telemetry-overhead:
	$(GO) run ./cmd/euabench -overhead

# telemetry-smoke drives a real euad process: runs a sweep job, scrapes
# /metrics for the job/engine/scheduler families, and pulls a CPU profile
# from /debug/pprof.
telemetry-smoke:
	$(GO) test -count=1 -run 'TestTelemetrySmoke' -v ./cmd/euad/

# cover runs the tests with coverage, then enforces an 80% statement
# coverage floor on each package of COVER_FLOOR_PKGS: the scheduler core
# internal/sched/eua (the production core under its unit and
# reference-oracle suites), the shared scheduling layer internal/sched
# (the Sequencer against the literal loop, the task table and the
# look-ahead), the admission analyzer internal/admission (unit +
# differential + golden threshold suites), the optimality oracles
# internal/oracle (unit + soundness + cross-oracle suites), the
# multi-tenant admission controller internal/tenancy, the
# fault-injectable filesystem and durable-write helpers internal/storage,
# the multiprocessor meta-schedulers internal/sched/partition (bin
# packing + global UER + single-core identity suite), the comparison
# schedulers internal/sched/baseline (all ten EDF and utility-accrual
# variants), the job journal internal/jobstore, the simulation engine
# internal/engine, the metrics registry internal/telemetry, the euad
# service core internal/server and the experiment harness
# internal/experiment (the scheme table, every sweep, the runner and the
# checkpoint store).
COVER_FLOOR_PKGS = internal/sched/eua internal/sched internal/admission internal/oracle \
	internal/tenancy internal/storage internal/sched/partition internal/sched/baseline internal/jobstore \
	internal/engine internal/telemetry internal/server internal/experiment

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1
	@for pkg in $(COVER_FLOOR_PKGS); do \
		prof=coverage-$${pkg##*/}.out; \
		echo "$(GO) test -coverprofile=$$prof ./$$pkg/"; \
		$(GO) test -coverprofile=$$prof ./$$pkg/ || exit 1; \
		$(GO) tool cover -func=$$prof | awk -v pkg=$$pkg '/^total:/ { pct = $$3 + 0; printf "%s coverage: %s (floor 80%%)\n", pkg, $$3; if (pct < 80) { printf "FAIL: %s below the 80%% coverage floor\n", pkg; exit 1 } }' || exit 1; \
	done

fuzz:
	$(GO) test -fuzz=FuzzCompliant -fuzztime=30s ./internal/uam/
	$(GO) test -fuzz=FuzzGenerators -fuzztime=30s ./internal/uam/
	$(GO) test -fuzz=FuzzConfig -fuzztime=30s ./internal/config/
	$(GO) test -fuzz=FuzzCheckpoint -fuzztime=30s ./internal/experiment/
	$(GO) test -fuzz=FuzzAdmission -fuzztime=30s -run='^$$' ./internal/admission/
	$(GO) test -fuzz=FuzzLeaseManifest -fuzztime=30s -run='^$$' ./internal/coordinator/
	$(GO) test -fuzz=FuzzFrame -fuzztime=30s -run='^$$' ./internal/storage/
	$(GO) test -fuzz=FuzzOracle -fuzztime=30s -run='^$$' ./internal/oracle/
	$(GO) test -fuzz=FuzzSeriesKey -fuzztime=30s -run='^$$' ./internal/telemetry/

# fuzz-smoke is the short CI-friendly fuzz pass wired into check.
fuzz-smoke:
	$(GO) test -fuzz=FuzzConfig -fuzztime=5s -run='^$$' ./internal/config/
	$(GO) test -fuzz=FuzzCheckpoint -fuzztime=5s -run='^$$' ./internal/experiment/
	$(GO) test -fuzz=FuzzAdmission -fuzztime=5s -run='^$$' ./internal/admission/
	$(GO) test -fuzz=FuzzLeaseManifest -fuzztime=5s -run='^$$' ./internal/coordinator/
	$(GO) test -fuzz=FuzzFrame -fuzztime=5s -run='^$$' ./internal/storage/
	$(GO) test -fuzz=FuzzOracle -fuzztime=5s -run='^$$' ./internal/oracle/
	$(GO) test -fuzz=FuzzSeriesKey -fuzztime=5s -run='^$$' ./internal/telemetry/

# check is the full local gate: build, lint, tests, race tests, coverage
# floor, fuzz smoke.
check: build lint test test-race cover fuzz-smoke

experiments:
	$(GO) run ./cmd/euasim -exp all -seeds 3 -horizon 1

# euad starts the scheduling daemon with a local data directory (job
# journal + sweep checkpoints; see DESIGN.md §9).
euad:
	$(GO) run ./cmd/euad -addr 127.0.0.1:9176 -data ./euad-data

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/awacs
	$(GO) run ./examples/airdefense
	$(GO) run ./examples/mobilemedia
	$(GO) run ./examples/sharedbus
	$(GO) run ./examples/dualcore

clean:
	$(GO) clean ./...
