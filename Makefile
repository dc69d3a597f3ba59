GO ?= go

.PHONY: all build test race vet bench bench-smoke bench-columnar debug-smoke drift-smoke reopt-smoke overload-smoke serve-smoke fuzz chaos chaos-net check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The morsel-driven executor's concurrency tests (shared meters, parallel
# scans/joins/aggregation, concurrent DML) only prove anything under the
# race detector; CI runs this target.
race:
	$(GO) test -race ./...

# go vet plus formatting: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi

bench:
	$(GO) test -bench=. -benchmem ./...

# Telemetry must be free when nobody is looking: the disabled-path
# benchmarks for the metrics registry, the phase tracer and the flight
# recorder next to the bare atomic-load baseline, plus the end-to-end
# statement benchmark with the recorder on/off, all with -benchmem so an
# unexpected allocation on a disabled path fails review at a glance. CI
# runs this target.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Disabled|AtomicLoadBaseline|NilTracer' -benchmem ./internal/metrics/ ./internal/tracing/ ./internal/flightrec/ ./internal/accuracy/
	$(GO) test -run '^$$' -bench 'StatementRecorder|StatementLedger' -benchmem ./internal/engine/

# Columnar execution smoke: a small chunk-size × workers sweep through the
# real jitsbench harness. The sweep itself cross-checks every configuration's
# result fingerprints and simulated cost against the baseline (4096-row
# chunks, one worker), so this doubles as a differential proof on real
# hardware. CI runs this target; run `jitsbench -exp columnar -scale 1.0`
# for full-scale numbers (results/columnar.csv is the historical record of
# the row-at-a-time executor this engine no longer has).
bench-columnar:
	$(GO) run ./cmd/jitsbench -exp columnar -scale 0.004 -queries 60 -sample 800

# Drift-detection smoke: the accuracy ledger's unit proofs plus the
# clock-injected quick drift run — warm a JITS engine, freeze collection,
# shift one table's distribution mid-run, and assert the ledger flags
# exactly that table as drifted. Pure Go, deterministic (logical-tick clock,
# seeded workload). CI runs this target; for the committed sweep see
# results/drift.csv and run `jitsbench -exp drift`.
drift-smoke:
	$(GO) test -count=1 -run 'TestLedger|TestDriftQuick' ./internal/accuracy/ ./internal/experiments/

# Mid-query re-optimization proofs under the race detector: the 220-statement
# reopt-on/off/serial differential at dop 1 and 4, the forced-misestimate
# chaos pass (estimates skewed 16x, results must match the fault-free
# baseline), the stale-plan cache canary, the recorder/ledger feedback
# cross-check, and the three-mode experiment gate (reopt beats both static
# baselines on simulated time and terminal q-error). CI runs this target; for
# the committed numbers see results/reopt.csv and run `jitsbench -exp reopt`.
reopt-smoke:
	$(GO) test -race -count=1 \
		-run 'TestReoptDifferential|TestChaosMisestimateReopt|TestReoptPlanCacheCanary|TestReoptShowQueries|TestFeedbackCrossCheck|TestReoptQuick|TestScaleIf' \
		./internal/engine/ ./internal/experiments/ ./internal/faultinject/

# End-to-end smoke of the embedded debug server: launches jitsbench with
# -debug-addr on a free port and validates /metrics, /debug/health,
# /debug/queries and /debug/archive with a pure-Go client (no curl). CI
# runs this target.
debug-smoke:
	$(GO) run ./cmd/debugsmoke

# Resource-governor proofs under the race detector: admission shedding and
# cancel-while-queued (engine + gate), memory-budget bounding, the sampling
# circuit breaker end to end, the govern.pressure chaos storm, and the
# overload experiment's accounting invariants. CI runs this target.
overload-smoke:
	$(GO) test -race -count=1 -run 'TestGate|TestBreaker|TestReservation|TestStatementMemoryBudget|TestSamplingShrinks|TestAdmissionOverload|TestCancelWhileQueued|TestBreakerTripsEndToEnd|TestChaosGovernPressure|TestOverloadQuick' \
		./internal/govern/ ./internal/engine/ ./internal/experiments/

# SQL service proofs under the race detector: the wire codec, the
# multi-session server (smoke, raw frames, concurrent-session stress,
# close-drains-governor), the plan cache (unit + property + engine
# end-to-end: DML invalidation, normalization sharing), SQL normalization,
# and the serving-throughput experiment. CI runs this target.
serve-smoke:
	$(GO) test -race -count=1 \
		-run 'TestWire|TestServe|TestSession|TestServerClose|TestPlanCache|TestNormalize|TestShowQueriesQIDs' \
		./internal/wire/ ./internal/server/ ./internal/client/ ./internal/plancache/ \
		./internal/sqlparser/ ./internal/engine/ ./internal/experiments/

# Short live run of the serial-vs-parallel differential fuzzer; the seed
# corpus alone is replayed by every plain `make test`.
fuzz:
	$(GO) test -run TestDifferential -fuzz=FuzzParallelSerial -fuzztime=30s ./internal/engine/

# Chaos differential replay: the workload under deterministic injected
# faults (scan errors, sampling failures, worker panics, latency+deadlines,
# archive corruption). -count=2 re-arms every schedule from scratch, so a
# test that forgot to reset the fault registry fails here.
chaos:
	$(GO) test -run Chaos -count=2 ./...

# Network chaos under the race detector: the full workload replayed through
# fault-injected connections (latency, stalls, torn writes, resets) with
# client retries on, asserting byte-identical results against a fault-free
# engine and zero double-applied DML; plus the exactly-once, drain, reap and
# client-resilience proofs. CI runs this target.
chaos-net:
	$(GO) test -race -count=1 \
		-run 'TestNetChaos|TestExactlyOnce|TestShutdown|TestStalledPeer|TestTornFrame|TestCloseMidRoundTrip|TestDrainingHealth|TestRetry|TestReconnect|TestFreshSession|TestConn|TestReadFrameDeadline|TestWriteFrameDeadline|TestServeChaosQuick' \
		./internal/server/ ./internal/client/ ./internal/wire/ ./internal/faultinject/ ./internal/experiments/

check: build vet test race serve-smoke
