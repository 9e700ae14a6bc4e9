GO ?= go

# check-safety sweeps this many fault-injected seeds per platform through the
# safety torture harness (linearizability + invariant checking under chaos).
SAFETY_SEEDS ?= 20

# check-backends tortures this many fault-injected seeds per platform through
# the exec backend's worker subprocesses end to end.
BACKEND_SEEDS ?= 8

# check-partitions sweeps this many nemesis seeds per platform through the
# naive and hardened arms of the partition study.
PARTITION_SEEDS ?= 8

# check-pipeline tortures this many fault-injected seeds through the
# cross-platform pipeline study's faulted arms.
PIPELINE_SEEDS ?= 4

# check-fleet runs the fleet-scale characterization at this reduced size (the
# full 2000-server/1M-user run lives in the test suite) and fails if the
# coordinator's live heap after the run exceeds the ceiling.
FLEET_SERVERS ?= 400
FLEET_USERS ?= 200000
FLEET_OPS ?= 8000
FLEET_HEAP_MB ?= 128

# fuzz runs every native fuzz target for this long each.
FUZZTIME ?= 30s

# FUZZ_TARGETS lists each fuzz target as package:FuzzName.
FUZZ_TARGETS = ./internal/compress:FuzzDecode ./internal/compress:FuzzEncodedLen \
	./internal/dispatch:FuzzReadFrame ./internal/protowire:FuzzUnmarshal \
	./internal/trace:FuzzTraceUnmarshalJSON

.PHONY: check build vet fmt test race check-safety check-obs check-overload check-backends check-partitions check-fleet check-pipeline check-perfbench fuzz bench bench-gate bench-baseline

check: build vet fmt race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# check-safety first cross-checks the linearizability and external-consistency
# checkers against brute-force oracles on seeded random histories (a clean
# verdict is only as good as the checker behind it), then runs the torture.
check-safety:
	$(GO) test ./internal/check/ -run 'MatchesBruteForceOracle'
	$(GO) run ./cmd/hyperprof -study=safety -check-seeds $(SAFETY_SEEDS)

# check-obs proves the observability plane: unit tests with zero-allocation
# assertions on the metric record paths, the byte-for-byte sequential-vs-
# parallel export determinism test, and an end-to-end -study=obs run emitting the
# JSON time series and Chrome counter tracks.
check-obs:
	$(GO) test ./internal/obs/ ./internal/trace/
	$(GO) test ./internal/experiments/ -run TestObsStudyParallelMatchesSequentialByteForByte
	$(GO) run ./cmd/hyperprof -study=obs -spanner 200 -bigtable 200 -bigquery 30 \
		-obs-out obs-series.json -chrome-trace obs-trace.json

# check-overload proves the overload control plane: the admission, retry
# budget, circuit breaker and tenant QoS unit tests (including the retry-storm
# metastability reproduction) in netsim plus the trigger scenarios in faults,
# the byte-for-byte sequential-vs-parallel overload study determinism test,
# and an end-to-end -study=overload run emitting the JSON report.
check-overload:
	$(GO) test ./internal/netsim/ ./internal/faults/ ./internal/workload/
	$(GO) test -race ./internal/netsim/ -run 'TestRetryStormMetastability|TestOverloadRunDeterministic'
	$(GO) test ./internal/experiments/ -run TestOverloadStudy
	$(GO) run ./cmd/hyperprof -study=overload -json > overload.json

# check-backends proves the execution-backend abstraction: the dispatch
# protocol and crash/timeout/retry tests, the byte-for-byte cross-backend
# determinism tests (in-process vs exec for every remotable study), the unit
# registry's JSON round-trip test, and an end-to-end safety torture through
# real `hyperprof -worker` subprocesses.
check-backends:
	$(GO) test ./internal/dispatch/
	$(GO) test ./internal/experiments/ -run 'AcrossBackends|Backend|ExecWorker|RunUnit|UnitRegistry'
	$(GO) run ./cmd/hyperprof -study=safety -check-seeds $(BACKEND_SEEDS) -backend=exec -workers 2

# check-partitions proves split-brain safety: the per-link fault plane and
# clock-model unit tests (including the zero-allocation messageDelay guard),
# the nemesis schedule pairing/determinism property tests, the multi-seed
# safety-under-partition study tests with broken-knob conviction at -short,
# and an end-to-end -study=partition -check sweep (nonzero exit on any violation
# outside the broken demonstration arms) emitting the JSON report.
check-partitions:
	$(GO) test ./internal/netsim/ ./internal/sim/ ./internal/check/
	$(GO) test -short ./internal/faults/ -run 'TestNemesis|TestSkippedUnknownTarget'
	$(GO) test -short ./internal/experiments/ -run 'TestPartitionStudy|TestRenderPartition'
	$(GO) run ./cmd/hyperprof -study=partition -check -check-seeds $(PARTITION_SEEDS) -json > partition.json

# check-fleet proves the bounded-memory fleet plane: the quantile-sketch
# accuracy/order-invariance property tests, the reservoir-sampling soundness tests, the
# sketch-mode byte-identity tests (sequential vs parallel and in-process vs
# exec workers), the flat-heap unit test, and an end-to-end reduced
# fleet characterization under a runtime.ReadMemStats heap ceiling.
check-fleet:
	$(GO) test ./internal/stats/ ./internal/check/ ./internal/workload/
	$(GO) test ./internal/experiments/ -run 'TestFleetScaleDeterministic|TestFleetScaleBackends|TestFleetSketchHeapFlat|TestFleetScaleExactMode'
	$(GO) run ./cmd/hyperprof -study=fleet -fleet-servers $(FLEET_SERVERS) -fleet-users $(FLEET_USERS) \
		-fleet-ops $(FLEET_OPS) -fleet-heap-mb $(FLEET_HEAP_MB)

# check-pipeline proves the cross-platform pipeline: the byte-for-byte
# cross-backend and sequential-vs-parallel pipeline study determinism tests,
# the end-to-end span and stage-crash exactly-once regressions with the
# broken-handoff fixture convicted, the handoff ledger's 0-alloc hot-path
# pin, and an end-to-end -study=pipeline -check run (nonzero exit on any
# honest-arm violation or an unconvicted broken arm) emitting the Chrome
# export whose spans cross all three platform processes. It also builds one
# BigTable config from several goroutines at once under -race, ten times:
# the base-SSTable size memo is the one state deployments (and so pipeline's
# parallel arms) share.
check-pipeline:
	$(GO) test -short ./internal/experiments/ -run 'TestPipeline'
	$(GO) test -race -count=10 ./internal/bigtable/ -run TestBaseSizeMemoConcurrentNew
	$(GO) test ./internal/workload/ -run TestClosedLoopShapeDeterministicAndDistinct \
		-bench BenchmarkPipelineHandoff -benchtime 100000x -benchmem
	$(GO) run ./cmd/hyperprof -study=pipeline -check -check-seeds $(PIPELINE_SEEDS) \
		-chrome-trace pipeline-trace.json

# check-perfbench proves the study-level benchmark: the harness's own tests
# (perfbench/ is a module of its own, so `go test ./...` skips them) and a
# short run of every workload, which fails unless the last line reports
# "correct":true — every run's export digest matched perfbench/pins.json and
# its other-process twin. A change that moves any study's bytes goes red here.
check-perfbench:
	cd perfbench && $(GO) test .
	@for w in char overload fleet pipeline; do \
		out="$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 5 --trace 0)" || exit 1; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 | grep -q '"correct":true' || { echo "perfbench: $$w is not correct"; exit 1; }; \
	done

# fuzz explores every decoder of bytes from outside the process — snappy
# blocks, worker frames, protowire messages, exported traces — for FUZZTIME
# each, with two fuzzing workers. Any crasher fails the target; commit it
# under the package's testdata/fuzz/ as a regression seed (tier-1 replays
# those corpora on every `go test`).
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		pkg="$${t%%:*}"; name="$${t##*:}"; \
		echo "fuzz $$pkg $$name ($(FUZZTIME))"; \
		$(GO) test "$$pkg" -run '^$$' -fuzz "^$$name$$" -fuzztime $(FUZZTIME) -parallel 2 || exit 1; \
	done

# bench runs the DES-kernel substrate microbenchmarks into BENCH_1.json and
# diffs the result against the committed BENCH_0.json baseline — a soft gate
# that warns on ns/op growth beyond the noise band (see scripts/bench_diff.sh)
# or any allocs/op growth, without failing the build. Refresh the baseline
# with bench-baseline after an intentional substrate change and commit the
# new BENCH_0.json.
bench:
	sh scripts/bench.sh BENCH_1.json
	sh scripts/bench_diff.sh BENCH_0.json BENCH_1.json

# bench-gate is the blocking form of bench, used by CI: the same diff, but
# out-of-band ns/op growth or any allocs/op growth fails the build.
bench-gate:
	sh scripts/bench.sh BENCH_1.json
	sh scripts/bench_diff.sh --fail BENCH_0.json BENCH_1.json

bench-baseline:
	sh scripts/bench.sh BENCH_0.json
