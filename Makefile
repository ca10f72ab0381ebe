GO ?= go

.PHONY: all build test test-race test-service test-cluster test-overload vet lint bench bench-sched bench-check perfbench-golden telemetry-overhead telemetry-smoke cover fuzz fuzz-smoke check experiments examples euad clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is vet plus staticcheck. staticcheck is optional tooling: when the
# binary is absent (minimal containers) the target degrades to vet alone
# and says so, rather than failing or pulling a dependency.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; ran go vet only"; \
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

# cover runs the tests with coverage and enforces the floors: the
# scheduler core internal/sched/eua (the production core under its unit
# and reference-oracle suites), the admission analyzer internal/admission
# (unit + differential + golden threshold suites), the optimality oracles
# internal/oracle (unit + soundness + cross-oracle suites), the
# multi-tenant admission controller internal/tenancy, the
# fault-injectable filesystem internal/storage, the multiprocessor
# meta-schedulers internal/sched/partition (bin packing + global UER +
# single-core identity suite) and the comparison schedulers
# internal/sched/baseline (all ten EDF and utility-accrual variants) must
# each stay at or above 80% statement coverage.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1
	$(GO) test -coverprofile=coverage-eua.out ./internal/sched/eua/
	@$(GO) tool cover -func=coverage-eua.out | awk '/^total:/ { pct = $$3 + 0; printf "internal/sched/eua coverage: %s (floor 80%%)\n", $$3; if (pct < 80) { print "FAIL: internal/sched/eua below the 80% coverage floor"; exit 1 } }'
	$(GO) test -coverprofile=coverage-admission.out ./internal/admission/
	@$(GO) tool cover -func=coverage-admission.out | awk '/^total:/ { pct = $$3 + 0; printf "internal/admission coverage: %s (floor 80%%)\n", $$3; if (pct < 80) { print "FAIL: internal/admission below the 80% coverage floor"; exit 1 } }'
	$(GO) test -coverprofile=coverage-oracle.out ./internal/oracle/
	@$(GO) tool cover -func=coverage-oracle.out | awk '/^total:/ { pct = $$3 + 0; printf "internal/oracle coverage: %s (floor 80%%)\n", $$3; if (pct < 80) { print "FAIL: internal/oracle below the 80% coverage floor"; exit 1 } }'
	$(GO) test -coverprofile=coverage-tenancy.out ./internal/tenancy/
	@$(GO) tool cover -func=coverage-tenancy.out | awk '/^total:/ { pct = $$3 + 0; printf "internal/tenancy coverage: %s (floor 80%%)\n", $$3; if (pct < 80) { print "FAIL: internal/tenancy below the 80% coverage floor"; exit 1 } }'
	$(GO) test -coverprofile=coverage-storage.out ./internal/storage/
	@$(GO) tool cover -func=coverage-storage.out | awk '/^total:/ { pct = $$3 + 0; printf "internal/storage coverage: %s (floor 80%%)\n", $$3; if (pct < 80) { print "FAIL: internal/storage below the 80% coverage floor"; exit 1 } }'
	$(GO) test -coverprofile=coverage-partition.out ./internal/sched/partition/
	@$(GO) tool cover -func=coverage-partition.out | awk '/^total:/ { pct = $$3 + 0; printf "internal/sched/partition coverage: %s (floor 80%%)\n", $$3; if (pct < 80) { print "FAIL: internal/sched/partition below the 80% coverage floor"; exit 1 } }'
	$(GO) test -coverprofile=coverage-baseline.out ./internal/sched/baseline/
	@$(GO) tool cover -func=coverage-baseline.out | awk '/^total:/ { pct = $$3 + 0; printf "internal/sched/baseline coverage: %s (floor 80%%)\n", $$3; if (pct < 80) { print "FAIL: internal/sched/baseline below the 80% coverage floor"; exit 1 } }'

fuzz:
	$(GO) test -fuzz=FuzzCompliant -fuzztime=30s ./internal/uam/
	$(GO) test -fuzz=FuzzGenerators -fuzztime=30s ./internal/uam/
	$(GO) test -fuzz=FuzzConfig -fuzztime=30s ./internal/config/
	$(GO) test -fuzz=FuzzCheckpoint -fuzztime=30s ./internal/experiment/
	$(GO) test -fuzz=FuzzAdmission -fuzztime=30s -run='^$$' ./internal/admission/

	$(GO) test -fuzz=FuzzLeaseManifest -fuzztime=30s -run='^$$' ./internal/coordinator/
	$(GO) test -fuzz=FuzzOracle -fuzztime=30s -run='^$$' ./internal/oracle/

# fuzz-smoke is the short CI-friendly fuzz pass wired into check.
fuzz-smoke:
	$(GO) test -fuzz=FuzzConfig -fuzztime=5s -run='^$$' ./internal/config/
	$(GO) test -fuzz=FuzzCheckpoint -fuzztime=5s -run='^$$' ./internal/experiment/
	$(GO) test -fuzz=FuzzAdmission -fuzztime=5s -run='^$$' ./internal/admission/
	$(GO) test -fuzz=FuzzLeaseManifest -fuzztime=5s -run='^$$' ./internal/coordinator/
	$(GO) test -fuzz=FuzzOracle -fuzztime=5s -run='^$$' ./internal/oracle/

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
